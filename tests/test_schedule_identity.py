"""Byte-identity guard for the scheduler.

The SHA-256 values below were taken from ``schedule.json`` as the
scheduler wrote it before its cycle walk learned to skip ops that cannot
start and idle stretches, and (the random FFT digest) before it ranked
lazily, group by group.  Those shortcuts are exact, so a change to any
digest here means the scheduler's behaviour changed, not just its speed.
"""

import hashlib

import pytest

import sfgsched as s
import experiments
from instances import random_fft_problem, random_problem

CONFIG_DIGESTS = {
    "io_constrained":
        "64a0fa79b971dffdb99846ead6b5ade2d03fdc77abbfc40a62d3b1b120912481",
    "two_bank_free_io":
        "b500605c76425cd2a74f13eec393bed2f46c2c7d4967f8062b1784fade744fda",
    "two_bank_paced_input":
        "03b8a20a8ffd560c202cf6b6224012a9c32e79a187e4811015ba533e0d7694a5",
}

# One digest over the outcome of random_problem seeds 0-299: the schedule
# JSON, or the failure message when the run aborts.
RANDOM_OUTCOMES_DIGEST = \
    "735ce0260099f5f37a811ef09a14f29fdaf383fc00fea863e3eeda1bc0067aeb"

# The same over random_fft_problem seeds 0-199: 4- to 16-point FFTs whose
# wide ready sets form the (mobility, alap) tie groups the ranking walks.
RANDOM_FFT_OUTCOMES_DIGEST = \
    "8513f0e00b7f0577c29111c96eebf3f42fc438633d7bf7ca50726ebfb282faef"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _config(name: str) -> experiments.Config:
    if name == "two_bank_free_io":
        return experiments.two_bank_free_io({"mult": 2, "add": 1, "sub": 1})
    return getattr(experiments, name)()


@pytest.mark.parametrize("name", sorted(CONFIG_DIGESTS))
def test_experiment_schedule_bytes_unchanged(name):
    sched, _ = _config(name).run()
    assert _sha256(sched.to_json()) == CONFIG_DIGESTS[name]


def _outcomes_digest(problems) -> str:
    digest = hashlib.sha256()
    for p in problems:
        try:
            text = p.run_scheduler().to_json()
        except s.ScheduleFailure as e:
            text = f"ScheduleFailure: {e}\n"
        digest.update(text.encode())
    return digest.hexdigest()


def test_random_problem_outcomes_unchanged():
    assert _outcomes_digest(random_problem(seed) for seed in range(300)) \
        == RANDOM_OUTCOMES_DIGEST


def test_random_fft_outcomes_unchanged():
    assert _outcomes_digest(random_fft_problem(seed) for seed in range(200)) \
        == RANDOM_FFT_OUTCOMES_DIGEST
