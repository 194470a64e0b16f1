"""Container DB indices against a brute-force scan of every record.

The DB answers ``with_app``, ``by_device``, ``live_records`` and the
resource totals from indices that the runtimes keep current by reporting
their state changes and code loads.  A hypothesis state machine drives
runtimes through every lifecycle path the platform uses — register,
boot (completed or left mid-boot), code load before or after boot,
stop, crash, unregister, and a migration restore that registers a
runtime already READY with its apps loaded — and after every step
compares each answer with a scan of ``all_records()``, order included.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    consumes,
    invariant,
    rule,
)

from repro.hostos import CloudServer, OutOfMemoryError
from repro.platform import ContainerDB
from repro.runtime import AndroidVM
from repro.runtime.base import RuntimeState
from repro.sim import Environment

APPS = ("chess", "ocr", "virusscan")
OWNERS = ("", "dev-0", "dev-1")
TERMINAL = (RuntimeState.STOPPED, RuntimeState.CRASHED)
HOLDING = (RuntimeState.BOOTING, RuntimeState.READY)


class RegistryMachine(RuleBasedStateMachine):
    runtimes = Bundle("runtimes")

    def __init__(self):
        super().__init__()
        self.server = CloudServer(Environment())
        self.env = self.server.env
        self.db = ContainerDB()

    def _new_vm(self):
        return AndroidVM(self.server, self.db.new_cid())

    def _settle(self):
        """Run the events due now (a started boot enters BOOTING)."""
        self.env.run(until=self.env.now)

    @rule(
        target=runtimes,
        owner=st.sampled_from(OWNERS),
        preload=st.sets(st.sampled_from(APPS)),
    )
    def register(self, owner, preload):
        vm = self._new_vm()
        for app in sorted(preload):
            vm.mark_loaded(app)
        self.db.register(vm, owner_device=owner, now=self.env.now)
        return vm

    @rule(
        target=runtimes,
        owner=st.sampled_from(OWNERS),
        apps=st.sets(st.sampled_from(APPS)),
    )
    def restore(self, owner, apps):
        # Live migration: the destination restores and loads the apps
        # before its row exists.
        vm = self._new_vm()
        try:
            vm.restore()
        except OutOfMemoryError:
            pass  # left STOPPED: its row joins no live index
        for app in sorted(apps):
            vm.mark_loaded(app)
        self.db.register(vm, owner_device=owner, now=self.env.now)
        return vm

    @rule(vm=runtimes, finish=st.booleans())
    def boot(self, vm, finish):
        if vm.state is not RuntimeState.CREATED:
            return
        proc = self.env.process(vm.boot())
        proc.defused = True  # memory exhaustion or a crash fails it
        if finish:
            self.env.run(until=proc)
        else:
            self._settle()

    @rule()
    def finish_boots(self):
        self.env.run()

    @rule(vm=runtimes, app=st.sampled_from(APPS))
    def load(self, vm, app):
        vm.mark_loaded(app)

    @rule(vm=runtimes)
    def stop(self, vm):
        if vm.state is RuntimeState.READY:
            vm.stop()

    @rule(vm=runtimes)
    def crash(self, vm):
        vm.crash("test")

    @rule(vm=consumes(runtimes))
    def unregister(self, vm):
        self.db.unregister(vm.instance_id)

    @rule(owner=st.sampled_from(OWNERS))
    def request_round_trip(self, owner):
        """Requests entering and leaving a row move no index."""
        for rec in self.db.by_device(owner):
            before = self.db.version
            self.db.begin_request(rec.cid)
            assert rec.cid in self.db.busy
            self.db.end_request(rec.cid)
            assert rec.cid not in self.db.busy
            assert self.db.version == before

    @invariant()
    def indices_match_a_scan(self):
        db = self.db
        records = db.all_records()
        live = [r for r in records if r.runtime.state not in TERMINAL]
        assert db.live_records() == live
        for owner in OWNERS:
            assert db.by_device(owner) == [r for r in live if r.owner_device == owner]
        for app in APPS:
            warm = [r for r in records if r.runtime.is_ready and r.runtime.has_app(app)]
            assert db.with_app(app) == warm
            assert db.ready_count(app) == len(warm)
        holding = [r for r in records if r.runtime.state in HOLDING]
        assert db.total_memory_mb() == sum(r.runtime.memory_mb for r in holding)
        assert db.total_disk_bytes() == sum(r.runtime.disk_bytes for r in holding)


RegistryMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)
TestRegistryIndices = RegistryMachine.TestCase


def test_version_moves_with_every_index_change():
    server = CloudServer(Environment())
    env = server.env
    db = ContainerDB()
    seen = [db.version]

    def moved():
        seen.append(db.version)
        return seen[-1] > seen[-2]

    vm = AndroidVM(server, db.new_cid())
    db.register(vm)
    assert moved()
    env.run(until=env.process(vm.boot()))
    assert moved()
    vm.mark_loaded("ocr")
    assert moved()
    vm.mark_loaded("ocr")  # already resident: nothing changes
    assert not moved()
    db.pool_changed()
    assert moved()
    vm.stop()
    assert moved()
    db.unregister(vm.instance_id)
    assert moved()
    assert db.live_records() == [] and db.with_app("ocr") == []
