"""The test run itself: a failing hypothesis property is reported, not a crash."""

from conftest import REPO

pytest_plugins = ["pytester"]


def test_a_failing_property_prints_its_falsifying_example(pytester):
    """Run under this repository's settings and conftest, with its warning filters."""
    pytester.makeconftest((REPO / "tests" / "conftest.py").read_text())
    pytester.makepyfile(
        test_property="""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 0
        """
    )
    result = pytester.runpytest_subprocess(
        "-c", str(REPO / "pyproject.toml"), "-p", "no:cacheprovider", str(pytester.path)
    )
    assert result.ret == 1, result.stdout.str()
    result.stdout.fnmatch_lines(["*Falsifying example*", "*1 failed*"])
