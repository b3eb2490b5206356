# Positive fixture for RTS005: pool-holding objects dropped on the floor.
import numpy as np


def leak_index(boxes):
    idx = RTSIndex(boxes)               # noqa: F821  # RTS005: no release
    return idx.query(boxes).count


def leak_executor():
    ex = ChunkedExecutor(4)             # noqa: F821  # RTS005: no release
    return ex


def leak_service(index):
    svc = SpatialQueryService(index)    # noqa: F821  # RTS005: no release
    svc.submit(np.zeros((1, 4)))

