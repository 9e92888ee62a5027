"""Repository benchmark: paper-scale simulation passes, timed end to end
and per layer.  Run ``python3 perfbench/run.py --help`` from the repo root."""
