"""Retrieval-augmented short-answer grading with feedback."""

import os

# One OpenBLAS thread: the exact MaxSim scan makes many small matmuls, which
# a second thread does not speed up and which, in a fresh process, sometimes
# stall for about a second. This must run before numpy is first imported; a
# value the user set wins, and a host that imported numpy first keeps its pool.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
