"""Three players are lined up in a hidden order, each applies a local map to
a system passed down the line, and afterwards they guess the order.

This package computes the optimal guessing probability for five strategy
classes: memoryless classical maps (1/3), classical maps with one recorded
bit per party (5/6), arbitrary non-signaling classical strategies (5/6, via
a linear program), memoryless qubit channels (1/3, via a discrimination
program), and local operations on a shared entangled state (1, verified in
exact arithmetic).
"""

__version__ = "0.1.0"
