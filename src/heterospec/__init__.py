"""heterospec: an entropy-adaptive draft-tree speculative decoding lab.

Small surrogate language models stand in for the target/draft pair so the
control logic (tree drafting, greedy verification, entropy binning, and
per-bin depth/budget adaptation) can be studied exactly and cheaply.
"""

__version__ = "0.1.0"
