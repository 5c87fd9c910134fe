"""repro — reproduction of "A Cross-platform Evaluation of Graphics Shader
Compiler Optimization" (Crawford & O'Boyle, ISPASS 2018).

Public API tour:

- :mod:`repro.core` — the offline shader optimizer (GLSL -> IR -> passes ->
  GLSL) and the 256-combination variant machinery.
- :mod:`repro.passes` — the eight optimization flags from the paper.
- :mod:`repro.gpu` — five simulated GPU platforms (driver JIT + cost model).
- :mod:`repro.harness` — the isolated timing harness and exhaustive study.
- :mod:`repro.corpus` — the GFXBench-4.0-style synthetic shader corpus.
- :mod:`repro.analysis` — everything behind the paper's Figs. 3-9 / Table I.
- :mod:`repro.search` — budgeted flag-space search: strategies, evaluation
  engine, persistent result cache, and the parallel scheduler.
"""

from repro.core import (
    CompiledShader, ShaderCompiler, compile_shader, optimize_source,
    unique_variants,
)
from repro.passes import DEFAULT_LUNARGLASS, OptimizationFlags
from repro.gpu import Platform, all_platforms, platform_by_name
from repro.harness import (
    ShaderExecutionEnvironment, StudyConfig, StudyResult, run_study,
)
from repro.corpus import MOTIVATING_SHADER, default_corpus
from repro.search import (
    EvaluationEngine, ResultCache, Scheduler, SearchStrategy, make_strategy,
)

__version__ = "1.2.0"

__all__ = [
    "CompiledShader", "ShaderCompiler", "compile_shader", "optimize_source",
    "unique_variants",
    "OptimizationFlags", "DEFAULT_LUNARGLASS",
    "Platform", "all_platforms", "platform_by_name",
    "ShaderExecutionEnvironment", "StudyConfig", "StudyResult", "run_study",
    "MOTIVATING_SHADER", "default_corpus",
    "EvaluationEngine", "ResultCache", "Scheduler", "SearchStrategy",
    "make_strategy",
    "__version__",
]
