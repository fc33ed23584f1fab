"""Bench E5 — regenerate the controller-scalability figure (claim C3)."""

from conftest import SEED, save_report

from repro.experiments import run_e5


def test_bench_e5_scalability(benchmark):
    result = benchmark.pedantic(
        run_e5,
        kwargs={
            "core_counts": (16, 64, 144, 256),
            "n_epochs": 50,
            "warmup_epochs": 10,
            "seed": SEED,
        },
        rounds=1,
        iterations=1,
    )
    save_report(result, benchmark)
    print()
    print(result)
    # Claim C3 shape: the centralized optimizer's advantage-free cost gap
    # grows with every step in core count and reaches tens-of-x at
    # hundreds of cores.
    speedups = result.data["speedups"]
    assert all(b > a for a, b in zip(speedups, speedups[1:])), speedups
    assert result.data["speedup_at_max_cores"] > 30.0
