"""Time one fresh set-up: import ``wdsres`` and load the given network files.

Run as ``python3 perfbench/setup_probe.py SRC_DIR NETWORK.json...``; prints
the seconds taken.  Interpreter start-up is outside the measured span.
"""

import sys
import time


def main(src: str, networks: list[str]) -> float:
    start = time.perf_counter()
    sys.path.insert(0, src)
    import wdsres

    for path in networks:
        wdsres.load_network(path)
    return time.perf_counter() - start


if __name__ == "__main__":
    print(repr(main(sys.argv[1], sys.argv[2:])))
