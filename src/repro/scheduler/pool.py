"""``multiprocessing.Pool``'s surface and contract over stdlib pool threads."""

import multiprocessing
from concurrent.futures import Future, ThreadPoolExecutor, wait
from typing import Any, Callable, Iterable, List, Optional

from repro.common.errors import StateError


class PoolResult:
    """``multiprocessing.pool.AsyncResult``'s contract over a ``Future``."""
    def __init__(self, future: Future):
        self._future, self.ready = future, future.done

    # paper surface: multiprocessing.pool.AsyncResult.successful()
    def successful(self) -> bool:  # repro: noqa[DEAD-REACH]
        if not self.ready():
            raise ValueError("result is not ready")
        return self._future.exception() is None

    def get(self, timeout: Optional[float] = None) -> Any:
        if wait([self._future], timeout).not_done:
            raise multiprocessing.TimeoutError("pool result not ready")
        return self._future.result()


class SimplePool(ThreadPoolExecutor):
    """The paper's lighter alternative to Celery: a fixed set of threads."""
    def __init__(self, processes: int = 4):
        if processes < 1:
            raise StateError("pool needs at least one worker")
        super().__init__(processes, "simplepool-worker")

    def apply_async(self, func: Callable, args=()) -> PoolResult:
        try:
            return PoolResult(self.submit(func, *args))
        except RuntimeError as error:  # submit() after close()
            raise StateError("pool is closed") from error

    def map(self, func: Callable, iterable: Iterable) -> List[Any]:
        handles = [self.apply_async(func, (item,)) for item in iterable]
        wait([h._future for h in handles])  # none left behind an early error
        return [handle.get() for handle in handles]

    def close(self) -> None:
        self.shutdown(wait=False)  # stops intake; queued work still runs

    def join(self) -> None:
        if not self._shutdown:
            raise StateError("join() requires close() first")
        self.shutdown(wait=True)
