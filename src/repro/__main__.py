"""Module entry point: ``python -m repro`` and ``mindful-repro``."""

import os

# One BLAS thread per process: OpenBLAS otherwise starts one per CPU in
# every forked ``fleet --jobs`` child, and they fight for the same cores.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from repro.cli import main  # noqa: E402

if __name__ == "__main__":
    raise SystemExit(main())
