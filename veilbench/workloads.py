"""The benchmark's workloads.  Each drives veil only through its public API:
`compiler.compile_source` / `load_artifact`, `runtime.deploy` / `connect`,
`ContractInterface.call` / `state` and `MockChain.load` / `save`.

Timed phases, named as the tracer names them:

  compile  `compile_source(..., output_dir=...)` into a fresh build directory,
           the `veil compile -o` path
  setup    the fixed cost of one CLI session, as `veil connect`/`run` pays
           it: `MockChain.load`, `load_artifact`, `runtime.connect` for the
           session's accounts and `MockChain.save`
  tx       `ContractInterface.call` -> receipt; one client, closed loop

Every timed phase starts with `gc.collect()`.  Times are measured at
reference machine speed (speed.py).  A build directory is deleted as soon
as it has been used: deleting them all at the end of a run slowed file
creation in the next run.  Correctness checks (checks.py) run
between timed operations, never inside them.  Every run attempts whole
rounds of the same operations.
"""
from __future__ import annotations

import gc
import json
import os
import random
import shutil
import statistics
import time
from collections import Counter
from contextlib import nullcontext

from veil import compiler, runtime
from veil.chain import (DEFAULT_BALANCE, GAS_PER_COMPRESSION, GAS_PER_SLOT,
                        GAS_PER_VERIFICATION, MockChain)
from veil.compiler import BuildSettings
from veil.field import field_by_name
from veil.parser import parse
from veil.source import SourceFile

from reference import Env, PlainContract, RefRevert

import checks
from speed import Speed
from tracing import TAG_PREFIXES, Tracer, tag_prefix

U32 = 1 << 32


def dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))


def published_keys(build_dir: str) -> dict:
    """Verifying-key files as `compile -o` wrote them, by circuit name."""
    out = {}
    for f in sorted(os.listdir(build_dir)):
        if f.startswith("verifying_") and f.endswith(".key"):
            with open(os.path.join(build_dir, f), "rb") as fh:
                out[f[len("verifying_"):-len(".key")]] = fh.read()
    return out


def entry_gas(artifact, vks: dict) -> dict:
    """Expected gas per proof-carrying function of a compiled contract, from
    its published verifying key and the chain's gas constants."""
    return {fn: checks.expected_gas(vks[entry.root_circuit], GAS_PER_SLOT,
                                    GAS_PER_COMPRESSION, GAS_PER_VERIFICATION)
            for fn, entry in artifact.tc.entries.items()}


def vk_digests(vks: dict) -> dict:
    return {c: checks.published_vk(b)["digest"] for c, b in vks.items()}


def loaded_digests(artifact) -> dict:
    return {c: keys.verifier.digest.hex() for c, keys in artifact.keys.items()}


def constraint_tags(artifact) -> Counter:
    return Counter(tag_prefix(tag) for low in artifact.lowered.values()
                   for tag in low.cs.tags)


class Workload:
    """Bookkeeping shared by the workloads: operation counts, transaction
    timings, the speed probe and, in a traced run, the tracer and the
    facts of the traced unit."""

    name = ""
    probes_per_phase = 1
    min_rounds = 1

    def __init__(self, root: str, work: str, seed: int, seconds: float,
                 smoke: bool):
        self.root = root
        self.work = work
        self.seed = seed
        self.seconds = 0 if smoke else seconds  # smoke: one round
        self.smoke = smoke
        self.rng = random.Random(f"{self.name}/{seed}")
        self.data_dir = os.path.join(work, "data")
        self.chain_file = os.path.join(work, "chain.json")
        self.speed = Speed()
        self.attempted = 0
        self.tx_count = 0  # in the current round
        self.tx_seconds = 0.0
        self.round_rates = []  # transactions per second of each round
        self.proof_latency = []
        self.gas = []
        self.tracer = None
        self.walls = {False: 0.0, True: 0.0}  # untraced / traced unit
        self.unit_facts = Counter()  # counts from the traced unit's artifacts

    def source(self, name: str) -> SourceFile:
        return SourceFile.load(os.path.join(self.root, "tests", "contracts",
                                            f"{name}.zkay"))

    def phase(self, name: str):
        gc.collect()
        self.speed.sample(self.probes_per_phase)
        if self.tracer is not None and self.tracer.installed:
            return self.tracer.phase(name)
        return nullcontext()

    def unit(self, traced: bool, work):
        """Run `work` with the tracer installed or not and add its wall
        time, at the speed its own probes saw, to that side's total."""
        first = len(self.speed.samples)
        start = time.perf_counter()
        with self.tracer if traced else nullcontext():
            result = work()
        wall = time.perf_counter() - start
        self.walls[traced] += wall / statistics.median(self.speed.samples[first:])
        return result

    def note_compiled(self, artifact):
        if self.tracer is not None and self.tracer.installed:
            self.unit_facts["proving.keys_generated"] += artifact.keygen_generated
            for prefix, n in constraint_tags(artifact).items():
                self.unit_facts[f"lowering.constraints.{prefix}"] += n

    def note_loaded(self, artifact):
        if self.tracer is not None and self.tracer.installed:
            self.unit_facts["proving.keys_reused"] += artifact.keygen_reused

    def tx(self, iface, fn: str, args, gas=None):
        """One transaction; `gas` is the expected charge of a proof-carrying
        call, None for a call that carries no proof."""
        with self.speed.measure() as m:
            receipt = iface.call(fn, args)
        self.attempted += 1
        checks.check_success(f"{fn}{args}", receipt)
        self.tx_count += 1
        self.tx_seconds += m.seconds
        if gas is not None:
            checks.check_gas(fn, gas, receipt)
            self.proof_latency.append(m.seconds)
            self.gas.append(receipt.gas_proxy)
        return receipt

    def tamper(self, iface, artifact, args):
        """A `buy` whose out array is altered after proving must revert as a
        verification failure and leave the state digest unchanged."""
        tx = iface.simulate_call("buy", args)
        bad = list(tx.out)
        bad[0] = (bad[0] + 1) % artifact.field.p
        chain = iface.chain
        before = chain.state_digest()
        receipt = chain.transact(iface.address, "buy", tx.args, iface.account,
                                 0, bad, tx.proof, artifact)
        self.attempted += 1
        checks.check_tampered(receipt, before, chain.state_digest())

    def close_round(self):
        self.round_rates.append(self.tx_count / self.tx_seconds)
        self.tx_count, self.tx_seconds = 0, 0.0

    def end_to_end(self, compile_s, setup_s) -> dict:
        return {
            "setup_s": setup_s,
            "compile_s": compile_s,
            "tx_p50_ms": statistics.median(self.proof_latency) * 1000,
            "tx_per_s": statistics.median(self.round_rates),
            "gas_per_tx": statistics.mean(self.gas),
            "constraints": self.constraints,
            "build_mb": self.build_bytes / 1e6,
        }

    def per_layer(self) -> dict:
        """The traced unit's per-layer metrics: self times at reference
        speed, the tracer's counts, and the counts taken from the unit's
        artifacts (key-cache outcomes, constraints by tag prefix)."""
        factor = self.speed.run_factor()
        metrics = {k: v * factor if k.endswith("_s") else v
                   for k, v in self.tracer.layer_metrics().items()}
        metrics.update({f"lowering.constraints.{p}": 0
                        for p in TAG_PREFIXES + ("other",)})
        metrics.update({"proving.keys_generated": 0, "proving.keys_reused": 0})
        metrics.update(self.unit_facts)
        metrics.update({
            "sha256gadget.compressions":
                self.tracer.counts["compile:sha256gadget.compressions"],
            "chain.file_mb": os.path.getsize(self.chain_file) / 1e6,
            "trace.overhead_pct":
                100 * (self.walls[True] - self.walls[False]) / self.walls[False],
            "bench.probe_ms": 1000 * statistics.median(self.speed.samples),
        })
        return metrics

    def start_tracing(self):
        """A traced run does each unit of work twice, untraced and then
        traced; the difference between the two is the tracing overhead."""
        self.tracer = Tracer()
        self.speed.during = False  # no probes inside traced spans

    def timed_rounds(self, run_round):
        """Whole rounds until `seconds` have passed; at least `min_rounds`."""
        start = time.perf_counter()
        r = 0
        while r < self.min_rounds or time.perf_counter() - start < self.seconds:
            run_round(r)
            r += 1


# --- the token workloads -------------------------------------------------------------


class TokenWorkload(Workload):
    """`token.zkay`: compiles, cold-start sessions, then rounds of
    `register` and `buy` checked against the benchmark's own ledger of
    registrations and buys summed mod 2^32."""

    backend = "dummy"
    compiles = 1
    setups = 3
    session_accounts = 3

    def __init__(self, *args):
        super().__init__(*args)
        self.settings = BuildSettings(crypto_backend=self.backend)
        self.ledger = {}  # account -> (registered, balance)
        self.ifaces = {}
        self.session = []
        self.compile_times = []
        self.setup_times = []
        self.artifact = self.chain = self.build_dir = None

    # -- phases --

    def compile(self, i: int):
        out = os.path.join(self.work, f"build-{i}")
        source = self.source("token")
        with self.phase("compile"), self.speed.measure() as m:
            artifact = compiler.compile_source(source, self.settings,
                                               output_dir=out)
        self.attempted += 1
        self.compile_times.append(m.seconds)
        self.note_compiled(artifact)
        if self.build_dir:
            shutil.rmtree(self.build_dir)
        self.build_dir = out
        self.vks = published_keys(out)
        self.build_bytes = dir_bytes(out)
        self.gas_expect = entry_gas(artifact, self.vks)
        self.constraints = sum(len(low.cs.constraints)
                               for low in artifact.lowered.values())
        self.field = artifact.field
        return artifact

    def setup(self, k: int):
        self.artifact = self.chain = None
        self.ifaces = {}
        with self.phase("setup"), self.speed.measure() as m:
            chain = MockChain.load(self.chain_file, self.field)
            artifact = compiler.load_artifact(self.build_dir)
            ifaces = {a: runtime.connect(artifact, chain, self.address, a,
                                         data_dir=self.data_dir,
                                         rng=random.Random(f"{self.seed}/{a}/{k}"))
                      for a in self.session}
            chain.save(self.chain_file)
        self.attempted += 1
        self.setup_times.append(m.seconds)
        self.note_loaded(artifact)
        checks.check_cold_start(vk_digests(self.vks), loaded_digests(artifact))
        self.artifact, self.chain, self.ifaces = artifact, chain, ifaces

    def run_round(self, r: int):
        with self.phase("tx"):
            viewed = self.round(r, random.Random(f"{self.name}/{self.seed}/round{r}"))
        self.close_round()
        self.view(*viewed)

    # -- operations --

    def iface(self, account: int):
        if account not in self.ifaces:
            self.ifaces[account] = runtime.connect(
                self.artifact, self.chain, self.address, account,
                data_dir=self.data_dir, rng=random.Random(f"{self.seed}/{account}"))
        return self.ifaces[account]

    def new_account(self, r: int) -> int:
        account = self.chain.create_account(f"{self.name}-{self.seed}-new{r}")
        self.ledger[account] = (False, 0)
        return account

    def register(self, account: int):
        self.tx(self.iface(account), "register", [])
        self.ledger[account] = (True, self.ledger[account][1])

    def buy(self, account: int, amount: int):
        self.tx(self.iface(account), "buy", [amount], self.gas_expect["buy"])
        registered, balance = self.ledger[account]
        self.ledger[account] = (registered, (balance + amount) % U32)

    def observe(self, account: int):
        iface = self.iface(account)
        self.attempted += 1
        return (bool(iface.state("registered", (account,))),
                iface.state("balance", (account,)))

    def view(self, *accounts):
        """Balance views: read and checked, never timed."""
        checks.check_ledger({a: self.ledger[a] for a in accounts},
                            {a: self.observe(a) for a in accounts})

    def deploy(self, artifact, chain) -> int:
        owner = chain.create_account(f"{self.name}-owner")
        address, receipt = runtime.deploy(artifact, chain, owner, [],
                                          data_dir=self.data_dir,
                                          rng=random.Random(self.seed))
        self.attempted += 1
        checks.check_success("deploy", receipt)
        self.address = address
        return owner

    # -- the run --

    def run(self, trace: bool) -> dict:
        if trace:
            self.start_tracing()
            self.unit(False, lambda: self.compile(0))
            artifact = self.unit(True, lambda: self.compile(1))
            self.prepare_chain(artifact)
            del artifact
            for i, traced in enumerate((False, True)):
                self.unit(traced, lambda: self.setup(i))
            for r, traced in enumerate((False, True)):
                self.unit(traced, lambda: self.run_round(r))
            self.finish()
            return self.per_layer()
        for i in range(self.compiles - 1):
            self.compile(i)  # dropped at once: only one artifact in memory
        artifact = self.compile(self.compiles - 1)
        self.prepare_chain(artifact)
        del artifact
        for k in range(self.setups):
            self.setup(k)
        self.timed_rounds(self.run_round)
        self.finish()
        return self.end_to_end(statistics.median(self.compile_times),
                               statistics.median(self.setup_times))

    def finish(self):
        self.tamper(self.iface(self.session[0]), self.artifact, [1])
        self.view(*sorted(self.ledger))


class TokenDhArx(TokenWorkload):
    """Hybrid encryption: SHA-256 key derivation and public-input hashing
    put ~343k constraints in the `buy` circuit."""

    name = "token-dharx"
    backend = "dh-arx"
    probes_per_phase = 9
    compiles = 2
    setups = 2
    min_rounds = 4  # single buys vary by ~10%: the median needs 8 of them

    def __init__(self, *args):
        super().__init__(*args)
        if self.smoke:
            # without public-input hashing the circuit is ~4x smaller
            self.settings = BuildSettings(crypto_backend=self.backend,
                                          hash_threshold=64)
            self.compiles = self.setups = self.min_rounds = 1

    def prepare_chain(self, artifact):
        """Deploy on a fresh chain and register the session accounts."""
        chain = MockChain(artifact.field)
        self.deploy(artifact, chain)
        self.session = [chain.create_account(f"{self.name}-session{i}")
                        for i in range(self.session_accounts)]
        self.artifact, self.chain = artifact, chain
        for account in self.session:
            receipt = self.iface(account).call("register", [])
            self.attempted += 1
            checks.check_success("register", receipt)
            self.ledger[account] = (True, 0)
        chain.save(self.chain_file)
        self.artifact = self.chain = None
        self.ifaces = {}

    def round(self, r: int, rng: random.Random):
        """A new account registers and buys; a session account buys.
        Returns the accounts to view."""
        new = self.new_account(r)
        old = self.session[r % len(self.session)]
        self.register(new)
        self.buy(new, rng.randrange(U32))
        self.buy(old, rng.randrange(U32))
        return new, old


class TokenHolders(TokenWorkload):
    """Dummy-backend token on a chain file that already holds `holders`
    registered holders with encrypted balances."""

    name = "token-holders"
    probes_per_phase = 3
    holders = 20000
    pool = 64  # holders with key files, so transactions can act for them
    session_accounts = 4
    compiles = 60
    setups = 5

    def __init__(self, *args):
        super().__init__(*args)
        if self.smoke:
            self.holders, self.pool, self.compiles, self.setups = 300, 8, 2, 2
        self.initial = {}  # holder -> ciphertext as generated

    def prepare_chain(self, artifact):
        """Deploy on a fresh chain, then write the holders straight into its
        `MockChain.to_json` form: accounts, PKI keys, `registered` and
        encrypted `balance` entries.  Pool holders get key files through
        `runtime.account_keys`; the others get random public keys."""
        chain = MockChain(artifact.field)
        owner = self.deploy(artifact, chain)
        backend = artifact.backend
        sender = runtime.account_keys(self.data_dir, backend, owner, chain)
        data = chain.to_json()
        storage = data["contracts"][str(self.address)]["storage"]
        registered = storage.setdefault("registered", {})
        balances = storage.setdefault("balance", {})
        pki = data["pki"].setdefault(backend.name, {})
        rng = self.rng
        holders = []
        seen = {owner}
        while len(holders) < self.holders:
            h = rng.getrandbits(160)
            if h not in seen:
                seen.add(h)
                holders.append(h)
        for i, h in enumerate(holders):
            if i < self.pool:
                pk = runtime.account_keys(self.data_dir, backend, h, chain,
                                          announce=False).pk
            else:
                pk = rng.randrange(1, artifact.field.p)
            amount = rng.getrandbits(32)
            cipher = backend.enc(amount, pk, sender, rng.getrandbits(128))
            data["accounts"][str(h)] = DEFAULT_BALANCE
            pki[str(h)] = pk
            registered[str(h)] = True
            balances[str(h)] = {"$cipher": list(cipher)}
            self.initial[h] = tuple(cipher)
            if i < self.pool:
                self.ledger[h] = (True, amount)
        with open(self.chain_file, "w") as f:
            json.dump(data, f, indent=1, sort_keys=True)
        self.pool_accounts = holders[:self.pool]
        self.session = holders[:self.session_accounts]

    def round(self, r: int, rng: random.Random):
        """Buys by a session holder and a pool holder; a new account
        registers and buys.  Returns the accounts to view."""
        old = self.session[r % len(self.session)]
        other = rng.choice(self.pool_accounts[self.session_accounts:])
        self.buy(old, rng.randrange(U32))
        self.buy(other, rng.randrange(U32))
        new = self.new_account(r)
        self.register(new)
        self.buy(new, rng.randrange(U32))
        return old, other, new

    def finish(self):
        super().finish()
        storage = self.chain.storage_of(self.address)
        checks.check_untouched(self.initial, storage.get("balance", {}),
                               self.ledger)


# --- the corpus workload --------------------------------------------------------------


def _u(bits):
    return lambda rng: [rng.randrange(1 << bits)]


def _none(rng):
    return []


# Sequences per contract: (function, calls per round, argument generator).
# Fixed call counts keep the function mix, and so the gas mean, independent
# of the seed; the seed picks arguments, acting accounts and order.  Contracts
# the oracle cannot model (payable: transfers) are compiled and cold-started
# only.
SEQUENCES = {
    "token": {"accounts": 3, "first": "register",
              "ops": [("buy", 6, _u(32))]},
    "reveal": {"ops": [("put", 4, _u(32)), ("open", 4, _none)]},
    "privif": {"ops": [("bump", 4, lambda rng: [rng.randrange(1 << 16),
                                                 rng.randrange(2)]),
                       ("drain", 3, _none)]},
    "nested": {"ops": [("f", 6, _u(16))]},
    "zeroinit": {"ops": [("touch", 4, _none), ("show", 3, _none)]},
    "publicif": {"ops": [("set", 6, lambda rng: [rng.randrange(4)])]},
    "shortcircuit": {"ops": [("test", 6, _u(1))]},
    "features": {"ctor": lambda rng: [rng.randrange(1000)],
                 "ops": [("twirl", 5, lambda rng: [rng.randrange(256),
                                                    rng.randrange(-1000, 1000)]),
                         ("modeName", 2, lambda rng: [rng.randrange(3)])]},
}


class Corpus(Workload):
    """Every contract of tests/contracts: compile, cold start, and replay a
    seeded sequence checked against the plaintext oracle, in whole rounds;
    each metric is the median of the round sums."""

    name = "corpus-dummy"
    accounts_n = 3

    def __init__(self, *args):
        super().__init__(*args)
        self.settings = BuildSettings()
        self.field = field_by_name(self.settings.prime)
        directory = os.path.join(self.root, "tests", "contracts")
        self.names = sorted(f[:-len(".zkay")] for f in os.listdir(directory)
                            if f.endswith(".zkay"))
        accounts = MockChain(self.field)
        self.accounts = [accounts.create_account(f"acct{i}")
                         for i in range(self.accounts_n)]
        self.plans = {n: self.plan(n) for n in self.names if n in SEQUENCES}
        self.compile_sums = []
        self.setup_sums = []

    def plan(self, name: str) -> dict:
        """A sequence the oracle runs without a revert, with the oracle's
        return values and final plaintext state."""
        spec = SEQUENCES[name]
        rng = random.Random(f"{self.name}/{self.seed}/{name}")
        n_acc = spec.get("accounts", 1)
        if self.smoke:
            spec = dict(spec, ops=[(fn, 1, gen) for fn, _n, gen in spec["ops"]])
        ops = [(fn, gen(rng), rng.choice(self.accounts[:n_acc]))
               for fn, count, gen in spec["ops"] for _ in range(count)]
        rng.shuffle(ops)
        if "first" in spec:
            ops = [(spec["first"], [], a) for a in self.accounts[:n_acc]] + ops
        ctor = spec["ctor"](rng) if "ctor" in spec else []
        contract = parse(self.source(name))
        oracle = PlainContract(contract)
        oracle.deploy(Env(sender=self.accounts[0]), list(ctor))
        returns = []
        for fn, args, account in ops:
            try:
                ret = oracle.call(fn, Env(sender=account), list(args))
            except RefRevert as e:
                raise checks.CheckFailed(f"{name}: generated {fn}{args} "
                                         f"reverts in the oracle: {e}")
            returns.append(ret.pattern if ret is not None else None)
        final = {}
        for var, value in oracle.state.items():
            if isinstance(value, dict):
                final.update({(var, k): v.pattern for k, v in value.items()})
            else:
                final[(var,)] = value.pattern
        return {"ops": ops, "returns": returns, "ctor": ctor, "final": final,
                "contract": contract, "accounts": self.accounts[:n_acc]}

    def run_round(self, r: int):
        rdir = os.path.join(self.work, f"round-{r}")
        arts = {}
        compile_sum = 0.0
        with self.phase("compile"):
            for name in self.names:
                source = self.source(name)
                with self.speed.measure() as m:
                    arts[name] = compiler.compile_source(
                        source, self.settings, output_dir=os.path.join(rdir, name))
                compile_sum += m.seconds
        self.attempted += len(self.names)
        vks = {n: published_keys(os.path.join(rdir, n)) for n in self.names}
        self.build_bytes = sum(dir_bytes(os.path.join(rdir, n)) for n in self.names)
        self.constraints = sum(len(low.cs.constraints) for a in arts.values()
                               for low in a.lowered.values())
        for artifact in arts.values():
            self.note_compiled(artifact)

        chain = MockChain(self.field)
        for i in range(self.accounts_n):
            chain.create_account(f"acct{i}")
        addresses = {}
        for name in self.names:
            plan = self.plans.get(name)
            address, receipt = runtime.deploy(
                arts[name], chain, self.accounts[0],
                list(plan["ctor"]) if plan else [], data_dir=self.data_dir,
                rng=random.Random(f"{self.seed}/{name}/{r}"))
            self.attempted += 1
            checks.check_success(f"deploy {name}", receipt)
            addresses[name] = address
        chain.save(self.chain_file)
        del arts, chain

        setup_sum = 0.0
        for name in self.names:
            plan = self.plans.get(name)
            accounts = plan["accounts"] if plan else self.accounts[:1]
            with self.phase("setup"), self.speed.measure() as m:
                chain = MockChain.load(self.chain_file, self.field)
                artifact = compiler.load_artifact(os.path.join(rdir, name))
                ifaces = {a: runtime.connect(artifact, chain, addresses[name], a,
                                             data_dir=self.data_dir,
                                             rng=random.Random(f"{self.seed}/{a}/{r}"))
                          for a in accounts}
            setup_sum += m.seconds
            self.attempted += 1
            self.note_loaded(artifact)
            checks.check_cold_start(vk_digests(vks[name]), loaded_digests(artifact))
            if plan:
                self.replay(name, plan, artifact, ifaces, vks[name])
            with self.phase("setup"), self.speed.measure() as m:
                chain.save(self.chain_file)
            setup_sum += m.seconds
            if plan:
                self.check_final(name, plan, chain, addresses[name], ifaces)
            if name == "token" and r == 0:
                self.tamper(ifaces[self.accounts[0]], artifact, [1])
        self.compile_sums.append(compile_sum)
        self.setup_sums.append(setup_sum)
        self.close_round()
        shutil.rmtree(rdir)

    def replay(self, name, plan, artifact, ifaces, vks):
        gas = entry_gas(artifact, vks)
        with self.phase("tx"):
            for (fn, args, account), want in zip(plan["ops"], plan["returns"]):
                receipt = self.tx(ifaces[account], fn, list(args), gas.get(fn))
                checks.check_equal(f"{name}.{fn}{args} return value", want,
                                   receipt.return_value)

    def check_final(self, name, plan, chain, address, ifaces):
        """Decrypt every state variable as its owner and compare with the
        oracle: tagged mappings belong to their key, other private values to
        the single acting account."""
        storage = chain.storage_of(address)
        owner = ifaces[plan["accounts"][0]]
        observed = {}
        for sv in plan["contract"].state_vars:
            base = sv.ann_type.base
            if hasattr(base, "key"):
                for key in set(storage.get(sv.name, {})) | \
                        {k[1] for k in plan["final"] if k[0] == sv.name}:
                    iface = ifaces.get(key, owner) if base.tag else owner
                    observed[(sv.name, key)] = iface.state(sv.name, (key,))
            else:
                observed[(sv.name,)] = owner.state(sv.name)
            self.attempted += 1
        checks.check_state(f"{name} final state", plan["final"], observed)

    def run(self, trace: bool) -> dict:
        if trace:
            self.start_tracing()
            for r, traced in enumerate((False, True)):
                self.unit(traced, lambda: self.run_round(r))
            return self.per_layer()
        self.timed_rounds(self.run_round)
        return self.end_to_end(statistics.median(self.compile_sums),
                               statistics.median(self.setup_sums))


WORKLOADS = {w.name: w for w in (TokenDhArx, TokenHolders, Corpus)}
