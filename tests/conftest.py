"""Pin OpenBLAS to one thread before numpy loads. LSTM weights depend on how
OpenBLAS splits the larger products across threads, so seeded outputs, and
the golden digests recorded in `test_cli.py`, hold at one thread count only;
one thread is also what the benchmark runs each stage with."""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
