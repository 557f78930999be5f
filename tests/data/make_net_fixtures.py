"""Write the WTS2 checkpoint fixtures that `test_nets.py` pins.

Each fixture is a freshly initialised tiny net (`net_<name>.wts`) plus its
forward output on the fixed test input (`net_<name>.out.npy`). Regenerate
only when the net architecture or its initialisation is meant to change.

Usage: PYTHONPATH=src python3 tests/data/make_net_fixtures.py
"""

import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from test_nets import FIXTURES, fixture_input  # noqa: E402
from tomopick import nets  # noqa: E402


def main() -> None:
    for name, cfg in FIXTURES.items():
        net = nets.build_net(cfg)
        nets.save_weights(HERE / f"net_{name}.wts", net)
        np.save(HERE / f"net_{name}.out.npy", net.forward(fixture_input()))
        print(f"wrote net_{name}.wts and net_{name}.out.npy")


if __name__ == "__main__":
    main()
