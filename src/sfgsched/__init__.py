"""Scheduling of DSP dataflow graphs onto hardware with shared operators,
banked memories and timed I/O buses."""

from .constraints import (CgKind, CgNode, ConstraintGraph, FeasibilityReport,
                          Problem, TimeWindows, UnsupportedGraphError,
                          apply_io_constraints, build_constraint_graph,
                          check_feasibility, compute_time_windows)
from .dot import export_dot
from .fft import generate_fft_sfg
from .graph import (SFG, Edge, NodeKind, ParseError, SfgNode, ValidationError,
                    parse_sfg, serialize_sfg, validate_sfg)
from .iospec import (BusDef, IoConstraintSpec, IoSpecError, Transfer,
                     build_transfer_graph, parse_io_spec)
from .memory import (Bank, HorizonError, MappingError, MappingSpec,
                     MemoryMapping, MemoryTable, Placement, PortAccessTable,
                     apply_mapping, extract_memory_table, parse_memory_mapping)
from .oplib import (LibraryError, OperatorClass, OperatorLibrary,
                    parse_operator_library)
from .report import (ArchitectureReport, build_report, render_report_text,
                     report_to_json)
from .scheduling import (Allocation, AllocationError, AllocationEvent,
                         OperatorInstance, Schedule, ScheduledAccess,
                         ScheduledOp, ScheduledTransfer, ScheduleFailure,
                         SchedulerState, assign_step, estimate_registers,
                         lower, parse_allocation, rank_executable, schedule)
from .verify import Violation, brute_force_min_latency, verify_schedule

__version__ = "0.1.0"

__all__ = [
    "SFG", "SfgNode", "Edge", "NodeKind", "ParseError", "ValidationError",
    "parse_sfg", "serialize_sfg", "validate_sfg", "export_dot",
    "generate_fft_sfg",
    "OperatorClass", "OperatorLibrary", "LibraryError",
    "parse_operator_library",
    "BusDef", "Transfer", "IoConstraintSpec", "IoSpecError",
    "build_transfer_graph", "parse_io_spec",
    "CgKind", "CgNode", "ConstraintGraph", "TimeWindows", "Problem",
    "FeasibilityReport",
    "UnsupportedGraphError", "build_constraint_graph", "apply_io_constraints",
    "compute_time_windows", "check_feasibility",
    "MemoryTable", "Bank", "Placement", "MappingError", "MappingSpec", "MemoryMapping",
    "PortAccessTable", "HorizonError",
    "extract_memory_table", "apply_mapping", "parse_memory_mapping",
    "Allocation", "AllocationError", "AllocationEvent", "OperatorInstance",
    "Schedule", "ScheduledOp", "ScheduledAccess", "ScheduledTransfer",
    "ScheduleFailure", "SchedulerState", "lower", "parse_allocation",
    "rank_executable", "assign_step", "schedule", "estimate_registers",
    "Violation", "verify_schedule", "brute_force_min_latency",
    "ArchitectureReport", "build_report", "render_report_text",
    "report_to_json",
]
