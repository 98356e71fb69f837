"""The set-up of one workload, run by `run.py` as a process of its own.

Covers interpreter start, `import gevreymhd`, the config parse and the
construction of the initial state (run workloads) or of the lab inputs
(lab-sweep), and nothing else, so `setup_s` has no wrapper around it.

Usage: python3 perfbench/setup_probe.py run CONFIG
       python3 perfbench/setup_probe.py lab SEED
"""

import sys


def main(argv) -> int:
    if argv[1] == "run":
        import gevreymhd.cli  # noqa: F401  (the CLI entry point loads it)
        from gevreymhd.config import load_config
        from gevreymhd.spectral import Grid, init_state

        config = load_config(argv[2])
        init_state(config.kind, Grid(config.n), **config.initial_params())
    else:
        from lab_sweep import build_inputs

        build_inputs(int(argv[2]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
