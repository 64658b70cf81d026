"""Fixed-work end-to-end benchmark of one DAG-SFC embedding decision.

Run ``python3 decisionbench/run.py --workload NAME --seed N --seconds S
--trace 0|1`` from the repository root; see ``decisionbench/README.md``.
"""
