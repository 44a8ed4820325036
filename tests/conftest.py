import pytest

from mbonacci import numeration, rauzy


@pytest.fixture(scope="session")
def sys2():
    return numeration.make_system(2, 10 ** 6)


@pytest.fixture(scope="session")
def sys3():
    return numeration.make_system(3, 10 ** 6)


@pytest.fixture(scope="session")
def cloud_m2_100k():
    return rauzy.build_cloud(2, 10 ** 5)
