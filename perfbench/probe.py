"""Set-up probe: a fresh interpreter that imports prumerge and runs one
library operation (read a dump, reduce it, write the result).

Usage: python3 probe.py '{"src": ..., "input": ..., "output": ..., "config": {...}}'

The caller times the whole process, so set-up includes interpreter
start, imports and the first (cold) operation. It imports nothing from
the benchmark, so that only prumerge's own set-up is measured.
"""

import json
import sys

spec = json.loads(sys.argv[1])
sys.path.insert(0, spec["src"])

from prumerge import PipelineConfig, read_token_dump, reduce_tokens, write_reduced_dump  # noqa: E402

result = reduce_tokens(read_token_dump(spec["input"]), PipelineConfig(**spec["config"]))
write_reduced_dump(result.tokens, result.source_indices, result.n, spec["output"])
