"""A race check shared by the tests of the growing caches."""

import os
import sys
import threading


def threads_agree_with_one_thread(clear, work, check):
    """Run ``work`` in more threads than there are cores, three times from a
    cleared cache, with a short switch interval so that the threads
    interleave; every thread must get the one-thread result, and ``check``
    then inspects the grown state."""
    expect = work()
    workers = (os.cpu_count() or 1) + 1
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(3):
            clear()
            barrier = threading.Barrier(workers)
            results = [None] * workers

            def run(i):
                barrier.wait(timeout=60)
                results[i] = work()

            threads = [threading.Thread(target=run, args=(i,)) for i in range(workers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert results == [expect] * workers
            check()
    finally:
        sys.setswitchinterval(interval)
