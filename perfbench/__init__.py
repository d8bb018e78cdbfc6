"""The repository benchmark (see README.md); entry point ``perfbench/run.py``."""
