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

from .classical import search_losr, search_memoryless
from .game import (
    Perm3,
    ScenarioResult,
    all_orders,
    trit_game,
    two_party_game,
)
from .network import solve_nonsignaling
from .quantum import (
    perfect_discrimination_state,
    quantum_memoryless_optimum,
    unbiased_order_states,
    verify_perfect_discrimination,
)
from .solver import SolveSettings, solve, solve_shared_state_feasibility

__all__ = [
    "Perm3",
    "ScenarioResult",
    "SolveSettings",
    "all_orders",
    "perfect_discrimination_state",
    "quantum_memoryless_optimum",
    "search_losr",
    "search_memoryless",
    "solve",
    "solve_nonsignaling",
    "solve_shared_state_feasibility",
    "trit_game",
    "two_party_game",
    "unbiased_order_states",
    "verify_perfect_discrimination",
]
