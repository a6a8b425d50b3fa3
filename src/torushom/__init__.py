"""Weighted homomorphism models on even discrete tori.

Subpackages by concern: constraint_graph (targets and extremal structure),
torus (geometry), exact (brute-force and transfer-matrix partition
functions, the standard corpus), proof_quantities (gap reports and the
extremal identity from closed-chain counts), sampler (Glauber dynamics and
phase classification), analysis (exact occupation laws and their limit
targets, growth-rate predictors), cli (command-line surface, where the
influence ratios are formed).
"""

__version__ = "0.1.0"
