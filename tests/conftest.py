from pathlib import Path

import pytest

from flowguard.flowfile import FlowDefinition, load_flow

FLOWS = Path(__file__).resolve().parent.parent / "flows"


def shipped(name: str) -> FlowDefinition:
    """The shipped flow ``flows/<name>.json``."""
    return load_flow(FLOWS / f"{name}.json")


@pytest.fixture(scope="session")
def agent():
    return shipped("read_agent")


@pytest.fixture(scope="session")
def rag_barrier():
    return shipped("rag_barrier")


@pytest.fixture(scope="session")
def rag_no_barrier():
    return shipped("rag_no_barrier")


@pytest.fixture(scope="session")
def agent_flow_text():
    return (FLOWS / "read_agent.json").read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def rag_barrier_flow_text():
    return (FLOWS / "rag_barrier.json").read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def rag_no_barrier_flow_text():
    return (FLOWS / "rag_no_barrier.json").read_text(encoding="utf-8")
