"""End-to-end benchmark for the sama sampler; run it with ``python3 -m e2ebench``."""
