"""Serving-stack benchmark (see README.md; entry point run.py)."""
