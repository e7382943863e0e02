"""Learners: nets, replay and elite buffers, and the agents."""
