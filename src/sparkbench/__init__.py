"""Benchmark suite for irregular sparse kernels.

Two kernel families over shared storage schemes: pointer-traversal
kernels on linked sparse matrices and indirection-array kernels on
array-based compressed rows, plus a harness that times both under
different interpreter configurations and reports speedups.
"""

__version__ = "0.1.0"
