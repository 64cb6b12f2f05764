"""End-to-end reproduction benchmark; run it with ``python3 perfbench/run.py``."""
