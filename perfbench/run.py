"""Benchmark entry point; run from the repository root.

    python3 perfbench/run.py --workload closed-tilings --seed 1 --seconds 30 --trace 0

Imports the library from this checkout's `src/` only and exits with code 2,
printing no result, when it is not there.
"""

import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main() -> int:
    sys.path[:0] = [str(SRC), str(ROOT)]
    start = perf_counter()
    try:
        import kasteleyn
    except ImportError as exc:
        print(f"cannot import kasteleyn from {SRC}: {exc}", file=sys.stderr)
        return 2
    import_s = perf_counter() - start
    if SRC not in Path(kasteleyn.__file__).resolve().parents:
        print(f"kasteleyn was imported from {kasteleyn.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from perfbench.bench import main as bench_main

    return bench_main(sys.argv[1:], import_s)


if __name__ == "__main__":
    sys.exit(main())
