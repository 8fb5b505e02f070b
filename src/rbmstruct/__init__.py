"""Two-hop structure learning for ferromagnetic and locally consistent
RBMs from visible-node samples, with classical greedy learners and
query-metered simulations of their quantum-search variants."""
