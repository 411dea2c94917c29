"""The repo's layered benchmark (see README.md in this directory).

Run it as ``python3 perfbench/bench.py``; the modules here are the
harness, never part of the program under test.
"""
