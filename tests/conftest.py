import json
from pathlib import Path

import pytest

import sfgsched as s

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA


@pytest.fixture(scope="session")
def pairsum_dir() -> Path:
    return DATA / "pairsum"


@pytest.fixture
def find_cycle_calls(monkeypatch) -> list:
    """The graphs ``SFG.find_cycle`` runs on, one entry per call: one per
    validation, since ``validate_sfg`` is its only caller in the package."""
    calls = []
    real = s.SFG.find_cycle

    def counting(g):
        calls.append(g)
        return real(g)
    monkeypatch.setattr(s.SFG, "find_cycle", counting)
    return calls


@pytest.fixture(scope="session")
def pairsum_graph(pairsum_dir) -> s.SFG:
    return s.parse_sfg((pairsum_dir / "graph.json").read_text())


@pytest.fixture(scope="session")
def pairsum_lib(pairsum_dir) -> s.OperatorLibrary:
    return s.parse_operator_library((pairsum_dir / "lib.json").read_text())


@pytest.fixture(scope="session")
def io_lat3(pairsum_dir, pairsum_graph) -> s.IoConstraintSpec:
    return s.parse_io_spec((pairsum_dir / "io_lat3.json").read_text(),
                           pairsum_graph)


@pytest.fixture(scope="session")
def io_lat2(pairsum_dir, pairsum_graph) -> s.IoConstraintSpec:
    return s.parse_io_spec((pairsum_dir / "io_lat2.json").read_text(),
                           pairsum_graph)


@pytest.fixture(scope="session")
def map_onebank(pairsum_dir, pairsum_graph) -> s.MemoryMapping:
    spec = s.parse_memory_mapping((pairsum_dir / "mem_onebank.json").read_text(),
                                  pairsum_graph)
    return s.apply_mapping(s.extract_memory_table(pairsum_graph), spec)


@pytest.fixture(scope="session")
def map_twobank(pairsum_dir, pairsum_graph) -> s.MemoryMapping:
    spec = s.parse_memory_mapping((pairsum_dir / "mem_twobank.json").read_text(),
                                  pairsum_graph)
    return s.apply_mapping(s.extract_memory_table(pairsum_graph), spec)


@pytest.fixture(scope="session")
def fft_lib() -> s.OperatorLibrary:
    return s.parse_operator_library(json.dumps({
        "clock_mhz": 200,
        "classes": [
            {"name": "mult", "ops": ["*"], "latency": 2},
            {"name": "add", "ops": ["+"], "latency": 1},
            {"name": "sub", "ops": ["-"], "latency": 1},
        ]}))


def auto_banks(g: s.SFG, n: int, ports: int = 1, t_seq: int = 1,
               t_rand: int = 2) -> s.MemoryMapping:
    banks = tuple(s.Bank(id=f"bank{i}", ports=ports, t_seq=t_seq,
                         t_rand=t_rand) for i in range(n))
    return s.apply_mapping(s.extract_memory_table(g),
                           s.MappingSpec(mode="auto", banks=banks))
