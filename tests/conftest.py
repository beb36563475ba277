import tempfile

from hypothesis.configuration import set_hypothesis_home_dir

# Hypothesis caches the constants it collects from local source files under
# its home, .hypothesis/ in the working directory by default, even when no
# test keeps an example database, and it collects them while pytest collects
# the tests; so the home moves to a temporary directory before that.
_home = tempfile.TemporaryDirectory()


def pytest_configure(config):
    set_hypothesis_home_dir(_home.name)


def pytest_unconfigure(config):
    set_hypothesis_home_dir(None)
    _home.cleanup()
