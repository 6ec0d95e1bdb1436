"""The benchmark's workloads: fixed lists of `verify` argument vectors.

The run adds ``--seed`` and ``--out`` to every vector.  Each workload states
why it is in the benchmark; README.md maps the layers each one stresses.
Sample counts are sized so that one cold pass takes one to four seconds on
a 2-CPU machine: a run then fits several fresh processes, and its medians
are steady.
"""

WORKLOADS = {
    "curvature-n3": {
        "why": "metric/curvature stack on the degree-1 field at n=3 "
               "(curvature_fd, Hessian stencils, theta/gram, derivation "
               "matrices) with little memo reuse",
        "commands": [
            ["--suite", "burns-bounds", "--n", "3", "--samples", "40"],
        ],
    },
    "connection-n2": {
        "why": "nested stencils on degrees 0..2 where the HiggsField memo is "
               "reused and wedge is non-trivial, plus curvature_fd as oracle",
        "commands": [
            ["--suite", "higgs", "--n", "2"],
            ["--suite", "curvature-formula", "--n", "2", "--samples", "20"],
        ],
    },
    "fibration-grid128": {
        "why": "control: spectral FFT fibers on 128^2 torus grids and sympy "
               "model builds, no wedge/higgs/wpcurv work",
        "commands": [
            ["--suite", "elliptic-family", "--grid", "128"],
            ["--suite", "schumacher", "--grid", "128"],
            ["--suite", "pk-equivalence", "--grid", "128"],
        ],
    },
    "verify-all-n2": {
        "why": "the CLI default suite and rank: every suite through "
               "run_suite's thread pool and the shared model cache",
        "commands": [
            ["--suite", "all", "--n", "2", "--samples", "20"],
        ],
    },
    # verify-all-n2 without the pool and without the geodesics suite, whose
    # ma-dual-linear check fails at about a third of seeds (README.md).
    "suites-n2": {
        "why": "every suite but geodesics at n=2, one command each: kns, "
               "symplin, fibration, projbundle and the curvature stack "
               "without the thread pool",
        "commands": [
            ["--suite", suite, "--n", "2", "--samples", "20"]
            for suite in ["kns-roundtrip", "higgs", "burns-bounds",
                          "curvature-formula", "trace-inequality",
                          "elliptic-family", "schumacher", "pk-equivalence",
                          "brunn-minkowski", "projbundle"]
        ],
    },
}
