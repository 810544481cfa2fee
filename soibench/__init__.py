"""Wall-clock benchmark of the SOI FFT: four workloads, end-to-end and
per-layer metrics, and a traced replay of the library's layer chain.

Run ``python3 soibench/run.py --help`` from the repository root.
"""
