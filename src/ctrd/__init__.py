"""Consistency-typed replicated-data language: parser, typechecker,
replicated-cloud simulator, and consistency checkers."""

from .lattice import DomainMismatch, GSet, LatticeValue, NatMax, lat_join, lat_leq, lat_lt, lat_meet
from .parser import ParseError, parse_program, parse_term, parse_type
from .syntax import (
    Identifier, Label, Location, Program, Term, Type, label_join, label_leq,
    pretty, pretty_type, refs, subtype, type_join_label,
)
from .typecheck import CheckError, ErrorKind, TypeEnv, check_program
from .runtime_local import ClientState, CtrdRuntimeError, decompose, step_local
from .runtime_cloud import (
    CloudConfig, check_wf, enabled, explore, initial_config, make_scheduler,
    run, step_cloud,
)
from .abstract_exec import (
    AbstractExecution, check_ec, check_noninterference, check_sc,
    con_observation, project_con, record,
)
from .clone import ReferenceGraph, reachable_graph

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
