"""Critical heat flux prediction toolkit.

Round-tube CHF correlations (Biasi, Bowring) solved by the heat-balance
method, a small self-contained neural-network
engine with a portable model format, residual-hybrid predictors that
correct a correlation instead of replacing it, dataset preparation and
evaluation utilities, PCA/convex-hull applicability checks, and a
one-dimensional heated-channel DNBR solver.
"""

__version__ = "0.1.0"
