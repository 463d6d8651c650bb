"""The benchmark's workload generators build their problems through the
package's public names (ROADMAP's "Names the benchmark depends on").
Building and running some of them here makes a deletion or a rename of
one of those names fail here, not in the first benchmark run."""

import sfgsched as s
from instances import workloads
from sfgsched import cli


def test_workload_problems_build_write_and_run(tmp_path):
    sweep = [workloads.sweep_problem(s, seed) for seed in range(20)]
    problems = sweep + workloads.fft64_pinned(s, 1)
    codes = [cli.main(workloads.write_problem(s, p, tmp_path / p.name))
             for p in problems]
    assert codes[-1] == 0  # fft64_pinned
    # the in-memory call of perfbench/run.py's ``in_memory_mismatch``: five
    # positional arguments, the schedule the CLI wrote on every exit 0
    for p, code in zip(problems, codes):
        if code == 0:
            text = s.schedule(p.g, p.lib, p.spec, p.mapping,
                              s.parse_allocation(p.alloc)).to_json()
            assert text == (tmp_path / p.name / "out" /
                            "schedule.json").read_text(), p.name
    # the oracle call of the benchmark's kernel_sweep verdicts
    optima = [s.brute_force_min_latency(p.g, p.lib, p.spec, p.mapping,
                                        instances=p.caps) for p in sweep]
    for p, code, optimum in zip(sweep, codes, optima):
        assert code in (0, 2, 3), p.name
        assert (code == 2) <= (optimum is None), p.name
    assert set(codes) == {0, 2, 3}
