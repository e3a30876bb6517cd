"""The test suite's own configuration."""

pytest_plugins = ["pytester"]


def test_failing_hypothesis_test_is_reported(pytester, request):
    # Hypothesis imports libcst to suggest a patch for a failing test; under
    # filterwarnings = error::DeprecationWarning a warning libcst raises on
    # import used to abort the whole session with INTERNALERROR, so no later
    # test was reported
    lines = "\n".join(f"    {f!r}," for f in request.config.getini("filterwarnings"))
    pytester.makepyprojecttoml(
        f"[tool.pytest.ini_options]\nfilterwarnings = [\n{lines}\n]\n")
    pytester.makepyfile(
        test_fails="""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(n):
            assert n < 0

        def test_after():
            pass
        """)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    assert result.ret == 1
    result.assert_outcomes(failed=1, passed=1)
