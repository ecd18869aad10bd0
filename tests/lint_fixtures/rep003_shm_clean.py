# REP003 clean: a job carrying only a plain-data shared-memory descriptor.
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np


@dataclass(frozen=True)
class SegmentRef:
    name: str  # segment name/shape/dtype: plain data
    shape: tuple[int, ...]
    dtype: str


@dataclass(frozen=True)
class DescriptorTailJob:
    desc: SegmentRef
    scale: float = 1.0

    def __call__(self, _task):
        seg = shared_memory.SharedMemory(name=self.desc.name)  # attached per call
        try:
            view = np.ndarray(self.desc.shape, dtype=self.desc.dtype, buffer=seg.buf)
            return float(view.sum()) * self.scale
        finally:
            seg.close()
