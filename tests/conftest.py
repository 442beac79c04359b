"""Pin OpenBLAS to one thread before numpy loads, the thread count the
benchmark runs each stage with. Products large enough for OpenBLAS to split
across threads (an LSTM trained at batch 4 096, say) round differently at
other counts; `test_cli.py` checks that the golden runs do not."""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
