"""The demos and the README's library quick tour run as written against the
current API."""

import re
import runpy
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ("01_batch_em_in_statistic_space", "02_minibatch_methods",
         "03_control_variate_equivalence", "04_hitting_time_scaling",
         "05_preprocessing_pipeline", "06_restart_variant_and_step_sizes")


def test_demos_and_readme_quick_tour_run(capsys):
    for name in DEMOS:
        runpy.run_path(str(ROOT / "demos" / f"{name}.py"), run_name="__main__")
        assert capsys.readouterr().out, name
    readme = (ROOT / "README.md").read_text()
    tour = readme.split("\n## Library quick tour\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", tour, re.S)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["fast"].status == namespace["warm"].status == "completed"
    assert namespace["warm"].algorithm == "warmup+spider-em"
