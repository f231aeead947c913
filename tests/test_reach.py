"""The reach audit in ``reach.py`` still finds the entry points it runs and the
names it keeps."""

import reach


def test_the_program_entry_points_still_exist(tmp_path):
    cases = reach.transcript()
    assert cases and all(len(case) == 6 for case in cases)
    child = reach.bench_child()
    gaussian, beta = child.grid_configs(1, 3)
    assert gaussian and beta
    text = (reach.ROOT / "bench" / "child.py").read_text()
    for script, workload, *options in reach.child_runs(tmp_path):
        assert script == str(reach.ROOT / "bench" / "child.py")
        assert f'sub.add_parser("{workload}")' in text, workload
        for flag in options[::2]:
            assert f'add_argument("{flag}"' in text, flag


def test_each_kept_name_is_public_and_each_module_parses():
    modules = sorted(reach.PACKAGE.glob("*.py"))
    public = {name for path in modules for name in reach.public_names(path)}
    assert set(reach.KEPT) <= public
    assert all(reach.statements(path) for path in modules)
