"""Isolated shader timing harness (paper Section IV-B) and the exhaustive
flag-space study (Section III-A) built on the simulated platforms."""

from repro.harness.environment import ShaderExecutionEnvironment
from repro.harness.protocol import (
    Measurement, protocol_noise, run_protocol,
)
from repro.harness.study import StudyConfig, StudyResult, run_study
from repro.harness.uniforms import default_uniform_values
from repro.harness.vertex_gen import generate_vertex_shader

__all__ = [
    "ShaderExecutionEnvironment", "Measurement", "protocol_noise",
    "run_protocol",
    "StudyConfig", "StudyResult", "run_study",
    "default_uniform_values", "generate_vertex_shader",
]
