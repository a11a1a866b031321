#!/usr/bin/env python3
"""Sweep N and compare twin-Fock phase precision with the shot-noise and
Heisenberg limits.  Emits CSV to stdout; redirect to a file for plotting.
"""
import argparse
import math
import sys

import numpy as np

from modefisher import Direction, make_fock_state, qfi_pure


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=int, default=100)
    args = parser.parse_args()

    n = Direction(1, 0, 0)
    sys.stdout.write("N,fisher,phase_bound,shot_noise,heisenberg\n")
    for big_n in range(2, args.n_max + 1, 2):
        state = make_fock_state(big_n // 2, big_n)
        fisher = qfi_pure(state, n)
        row = (big_n, fisher, 1 / math.sqrt(fisher), 1 / math.sqrt(big_n), 1 / big_n)
        sys.stdout.write(",".join(format(x, ".17g") for x in row) + "\n")


if __name__ == "__main__":
    main()
