import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--long-budget",
        action="store_true",
        default=False,
        help="run the (7,2) stretch seed search (up to 15 minutes)",
    )


@pytest.fixture
def long_budget(request) -> bool:
    return request.config.getoption("--long-budget")
