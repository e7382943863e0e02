"""Learners: nets, replay and elite buffers, exploration noise, and the agents."""
