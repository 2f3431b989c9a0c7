package main

import (
	"fmt"
	"math/rand"

	"tiermerge/internal/model"
	"tiermerge/internal/tx"
	"tiermerge/internal/workload"
)

// clients is the closed-loop client count: one goroutine and one pooled
// TCP connection each. The reference host has 2 cores.
const clients = 2

// spec is one workload: the shape of the base tier, of the fleet and of a
// session. Names are fixed; later issues cite them.
type spec struct {
	Name   string
	Shards int
	// Mobiles is M, the mobile identities the clients play in turn.
	Mobiles int
	// Tentative is T, tentative transactions per session.
	Tentative int
	// BaseNum/BaseDen is B, base transactions per session, as a fraction:
	// a session runs BaseNum transactions when BaseDen is 1, and one every
	// BaseDen sessions otherwise.
	BaseNum, BaseDen int
	// Window is W: the window advances (and the log is checkpointed) every
	// Window reconnects, so prefix length is bounded and the same from run
	// to run.
	Window int
	// DepositOnly marks workloads whose every transaction is a Deposit, on
	// which the total balance is checked exactly.
	DepositOnly bool
	// Profile describes the items and transaction mix for the tables.
	Profile string

	origin  func() model.State
	newFeed func(seed int64, client int, sp *spec) feed
}

// session is the pre-generated input of one disconnect/reconnect cycle.
type session struct {
	no     int // the client's running session number
	mobile int // index into the client's mobiles
	base   []*tx.Transaction
	tent   []*tx.Transaction
}

// feed mints a client's sessions deterministically from the seed. next is
// called between windows, never while the program is being timed.
type feed interface {
	next(sessionNo int) session
}

// specs lists the five workloads in reporting order.
var specs = []*spec{
	{
		Name:   "fleet-durable",
		Shards: 4, Mobiles: 64, Tentative: 8, BaseNum: 8, BaseDen: 1, Window: 128,
		Profile: "Generator Items 256, HotItems 16, PHot 0.2",
		origin:  func() model.State { return generatorOrigin(256) },
		newFeed: generatorFeed(workload.Config{Items: 256, HotItems: 16, PHot: 0.2}),
	},
	{
		Name:   "long-prefix",
		Shards: 1, Mobiles: 64, Tentative: 3, BaseNum: 8, BaseDen: 1, Window: 256,
		DepositOnly: true,
		Profile:     "64 accounts, mobiles and base both Deposit (delta-pure)",
		origin:      func() model.State { return accountOrigin(64, 0) },
		newFeed:     depositFeed(64, 0),
	},
	{
		Name:   "conflict-heavy",
		Shards: 1, Mobiles: 16, Tentative: 16, BaseNum: 2, BaseDen: 1, Window: 32,
		Profile: "Generator Items 128, HotItems 4, PHot 0.25, PCommutative 0.2",
		origin:  func() model.State { return generatorOrigin(128) },
		newFeed: generatorFeed(workload.Config{Items: 128, HotItems: 4, PHot: 0.25, PCommutative: 0.2}),
	},
	{
		Name:   "sync-small",
		Shards: 4, Mobiles: 256, Tentative: 2, BaseNum: 1, BaseDen: 4, Window: 256,
		DepositOnly: true,
		Profile:     "256 private accounts, Deposit only; base deposits go to 16 base-only items",
		origin:      func() model.State { return accountOrigin(256, 16) },
		newFeed:     depositFeed(256, 16),
	},
	{
		Name:   "base-heavy",
		Shards: 1, Mobiles: 16, Tentative: 4, BaseNum: 64, BaseDen: 1, Window: 32,
		Profile: "Generator Items 1024, defaults",
		origin:  func() model.State { return generatorOrigin(1024) },
		newFeed: generatorFeed(workload.Config{Items: 1024}),
	},
}

func specByName(name string) *spec {
	for _, sp := range specs {
		if sp.Name == name {
			return sp
		}
	}
	return nil
}

// baseCount is the number of base transactions session sessionNo runs.
func (sp *spec) baseCount(sessionNo int) int {
	if sp.BaseDen == 1 {
		return sp.BaseNum
	}
	if sessionNo%sp.BaseDen == 0 {
		return sp.BaseNum
	}
	return 0
}

// mobilesPerClient is the number of identities each client plays.
func (sp *spec) mobilesPerClient() int { return sp.Mobiles / clients }

func generatorOrigin(items int) model.State {
	return workload.NewGenerator(workload.Config{Items: items}).OriginState()
}

// accountOrigin is the deposit workloads' universe: accounts private
// accounts and baseOnly items only base transactions touch.
func accountOrigin(accounts, baseOnly int) model.State {
	s := model.NewState()
	for i := 0; i < accounts; i++ {
		s.Set(accountName(i), 1000)
	}
	for i := 0; i < baseOnly; i++ {
		s.Set(baseItemName(i), 1000)
	}
	return s
}

func accountName(i int) model.Item  { return model.Item(fmt.Sprintf("acct%d", i)) }
func baseItemName(i int) model.Item { return model.Item(fmt.Sprintf("base%d", i)) }

// clientSeed derives a client's generator seed: distinct per client and
// per stream, the same for the same --seed.
func clientSeed(seed int64, client, stream int) int64 {
	return seed*1_000_003 + int64(client)*101 + int64(stream)
}

// genFeed draws sessions from two workload.Generators (tentative and base
// streams) and renames the transactions so IDs are unique across clients.
type genFeed struct {
	sp         *spec
	client     int
	tent, base *workload.Generator
}

func generatorFeed(cfg workload.Config) func(int64, int, *spec) feed {
	return func(seed int64, client int, sp *spec) feed {
		tc, bc := cfg, cfg
		tc.Seed = clientSeed(seed, client, 1)
		bc.Seed = clientSeed(seed, client, 2)
		return &genFeed{sp: sp, client: client,
			tent: workload.NewGenerator(tc), base: workload.NewGenerator(bc)}
	}
}

func (f *genFeed) next(sessionNo int) session {
	s := session{no: sessionNo, mobile: sessionNo % f.sp.mobilesPerClient()}
	for i := f.sp.baseCount(sessionNo); i > 0; i-- {
		t := f.base.Txn(tx.Base)
		t.ID = fmt.Sprintf("c%d%s", f.client, t.ID)
		s.base = append(s.base, t)
	}
	for i := 0; i < f.sp.Tentative; i++ {
		t := f.tent.Txn(tx.Tentative)
		t.ID = fmt.Sprintf("c%d%s", f.client, t.ID)
		s.tent = append(s.tent, t)
	}
	return s
}

// depFeed mints Deposit-only sessions: mobile i of the fleet deposits into
// its own account; base deposits go to the base-only items when there are
// any, and to a random account otherwise (the E16 shape: everything is a
// commuting delta, nothing conflicts).
type depFeed struct {
	sp                 *spec
	client             int
	accounts, baseOnly int
	rng                *rand.Rand
	seq                int
}

func depositFeed(accounts, baseOnly int) func(int64, int, *spec) feed {
	return func(seed int64, client int, sp *spec) feed {
		return &depFeed{sp: sp, client: client, accounts: accounts, baseOnly: baseOnly,
			rng: rand.New(rand.NewSource(clientSeed(seed, client, 3)))}
	}
}

func (f *depFeed) next(sessionNo int) session {
	s := session{no: sessionNo, mobile: sessionNo % f.sp.mobilesPerClient()}
	amt := func() model.Value { return model.Value(1 + f.rng.Int63n(100)) }
	for i := f.sp.baseCount(sessionNo); i > 0; i-- {
		f.seq++
		it := accountName(f.rng.Intn(f.accounts))
		if f.baseOnly > 0 {
			it = baseItemName(f.rng.Intn(f.baseOnly))
		}
		s.base = append(s.base, workload.Deposit(fmt.Sprintf("c%dTb%d", f.client, f.seq), tx.Base, it, amt()))
	}
	account := accountName((f.client*f.sp.mobilesPerClient() + s.mobile) % f.accounts)
	for i := 0; i < f.sp.Tentative; i++ {
		f.seq++
		s.tent = append(s.tent, workload.Deposit(fmt.Sprintf("c%dTm%d", f.client, f.seq), tx.Tentative, account, amt()))
	}
	return s
}

// depositTotal sums the amounts of the Deposit transactions in ts.
func depositTotal(ts []*tx.Transaction) model.Value {
	var sum model.Value
	for _, t := range ts {
		sum += t.Params["amt"]
	}
	return sum
}
