package sim

// Durable crash sweep: the segmented-log counterpart of RunBaseCrashSweep.
// Where the base sweep kills a full-history journal at every record and
// byte boundary, this sweep drives a day through the durable engine's
// checkpoint + truncation cycle (OpenBase, Checkpoint, segment rotation)
// and materializes the on-disk image every crash along the way would
// leave behind: the tail cut at each record and byte boundary, torn
// trailing fragments, and the mid-rotation states (temp checkpoint not
// yet renamed, renamed checkpoint with no tail yet, stale previous
// generation not yet swept). Every image is recovered with OpenBase and
// pinned byte-identical to a full-log replay of the same history —
// checkpointing must change how much is replayed, never what is
// recovered (DESIGN.md §14).

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"tiermerge/internal/cost"
	"tiermerge/internal/model"
	"tiermerge/internal/replica"
	"tiermerge/internal/store"
	"tiermerge/internal/tx"
	"tiermerge/internal/wal"
)

// DurableCrashSweep configures one durable kill-point sweep. The embedded
// CrashSweep supplies the workload knobs; the day it runs places a window
// advance before and after a mid-day Checkpoint, so the swept tail spans
// both commits and a window advance.
type DurableCrashSweep struct {
	CrashSweep
	// Dir is the scratch directory trial images are materialized in
	// (required; tests pass t.TempDir()). Each trial's image is removed
	// once it passes.
	Dir string
}

// DurableSweepResult extends the base tally with the durable-only trial
// classes.
type DurableSweepResult struct {
	CrashSweepResult
	// TailRecords is the reference tail's record count — the number of
	// record-boundary kill points after the checkpoint.
	TailRecords int
	// RotationKillPoints counts mid-rotation crash images recovered.
	RotationKillPoints int
}

func (r *DurableSweepResult) String() string {
	return fmt.Sprintf("durable crash sweep: %d records (%d in tail), %d kill points (+%d byte-granular, +%d rotation), %d recoveries, %d torn tails, %d records replayed",
		r.Records, r.TailRecords, r.KillPoints, r.ByteKillPoints, r.RotationKillPoints,
		r.Recoveries, r.TornTails, r.RecordsReplayed)
}

// RunDurableCrashSweep sweeps every kill point of a durable base day —
// through the checkpoint rotation and the truncated tail — and pins each
// recovery byte-identical to a full-log replay. See DurableCrashSweep.
func RunDurableCrashSweep(ds DurableCrashSweep) (*DurableSweepResult, error) {
	cs := ds.CrashSweep.withDefaults()
	if ds.Dir == "" {
		return nil, fmt.Errorf("sim: durable crash sweep: Dir is required")
	}
	advance1, ckptAt, advance2 := cs.BaseTxns/3, cs.BaseTxns/2, (2*cs.BaseTxns+2)/3
	if !(0 < advance1 && advance1 < ckptAt && ckptAt < advance2 && advance2 < cs.BaseTxns) {
		return nil, fmt.Errorf("sim: durable crash sweep: BaseTxns %d cannot place advances around a mid-day checkpoint", cs.BaseTxns)
	}
	baseTxns := sweepBaseTxns(cs)
	origin := sweepOrigin(cs)
	cfg := replica.Config{Weights: cost.DefaultWeights(), Observer: cs.Observer}

	// Reference runs in lockstep: a legacy cluster journaling its full
	// history into a buffer (the oracle), and a durable cluster executing
	// the identical day through the segment log. The durable tail's record
	// i is the full log's record prefixRecords+i — same operations, same
	// order — which is exactly the mapping every trial's oracle uses.
	legacy := replica.NewBaseCluster(origin, cfg)
	var refJournal bytes.Buffer
	if err := legacy.AttachJournal(&refJournal); err != nil {
		return nil, fmt.Errorf("sim: durable crash sweep: %w", err)
	}
	refDir := filepath.Join(ds.Dir, "ref")
	durable, _, err := replica.OpenBase(refDir, origin, cfg)
	if err != nil {
		return nil, fmt.Errorf("sim: durable crash sweep: %w", err)
	}
	var preGen int
	var preBytes int64
	var preCkpt, preTail []byte
	for j, t := range baseTxns {
		if j == advance1 || j == advance2 {
			legacy.AdvanceWindow()
			durable.AdvanceWindow()
		}
		if j == ckptAt {
			// Snapshot the pre-rotation generation first: the mid-rotation
			// trial images are built from it.
			if preGen, preCkpt, preTail, err = store.Segments(refDir); err != nil {
				return nil, fmt.Errorf("sim: durable crash sweep: pre-rotation image: %w", err)
			}
			if err := durable.Checkpoint(); err != nil {
				return nil, fmt.Errorf("sim: durable crash sweep: checkpoint: %w", err)
			}
			preBytes = int64(refJournal.Len())
		}
		if err := legacy.ExecBase(t); err != nil {
			return nil, fmt.Errorf("sim: durable crash sweep reference: %w", err)
		}
		if err := durable.ExecBase(t); err != nil {
			return nil, fmt.Errorf("sim: durable crash sweep reference: %w", err)
		}
	}
	refMaster := legacy.Master()
	if !durable.Master().Equal(refMaster) {
		return nil, fmt.Errorf("sim: durable crash sweep: reference runs diverged: %s != %s", durable.Master(), refMaster)
	}
	if err := durable.CloseStore(); err != nil {
		return nil, fmt.Errorf("sim: durable crash sweep: %w", err)
	}
	gen, ckpt, tail, err := store.Segments(refDir)
	if err != nil {
		return nil, fmt.Errorf("sim: durable crash sweep: %w", err)
	}
	if gen != preGen+1 {
		return nil, fmt.Errorf("sim: durable crash sweep: rotation did not advance the generation (%d -> %d)", preGen, gen)
	}

	full := append([]byte(nil), refJournal.Bytes()...)
	scanned, err := wal.ScanBytes(full, wal.Strict)
	if err != nil {
		return nil, fmt.Errorf("sim: durable crash sweep: reference journal: %w", err)
	}
	bounds := scanned.Ends
	prefixRecords := sort.Search(len(bounds), func(i int) bool { return bounds[i] > preBytes })
	tscan, err := wal.ScanBytes(tail, wal.Strict)
	if err != nil || tscan.Torn {
		return nil, fmt.Errorf("sim: durable crash sweep: reference tail: %w", wal.ErrCorrupt)
	}
	tailRecs := tscan.Records
	tbounds := tscan.Ends
	if prefixRecords+len(tailRecs) != len(scanned.Records) {
		return nil, fmt.Errorf("sim: durable crash sweep: tail/full-log mapping broken: %d+%d != %d",
			prefixRecords, len(tailRecs), len(scanned.Records))
	}
	res := &DurableSweepResult{TailRecords: len(tailRecs)}
	res.Records = len(scanned.Records)

	// A checkpoint segment is written atomically (temp + fsync + rename);
	// any damage to it is corruption, not a crash artifact — recovery must
	// refuse it outright rather than salvage a prefix.
	badDir := filepath.Join(ds.Dir, "bad-ckpt")
	if err := store.WriteSegments(badDir, gen, ckpt[:len(ckpt)-3], tail); err != nil {
		return nil, fmt.Errorf("sim: durable crash sweep: %w", err)
	}
	if b, _, err := replica.OpenBase(badDir, origin, cfg); err == nil {
		b.CloseStore()
		return nil, fmt.Errorf("sim: durable crash sweep: recovery accepted a damaged checkpoint segment")
	}
	os.RemoveAll(badDir)

	// Record-boundary sweep over the tail (clean and torn variants). n=0 is
	// the crash immediately after the rotation published the new segments.
	err = res.sweepRecords(0, len(tailRecs), cs.TornTailBytes, func(n, torn int) error {
		cut := int64(torn)
		if n > 0 {
			cut += tbounds[n-1]
		}
		dir := filepath.Join(ds.Dir, fmt.Sprintf("kill-%03d-%d", n, torn))
		return runDurableTrial(res, cfg, origin, baseTxns, full, bounds, refMaster, dir,
			func(d string) error { return store.WriteSegments(d, gen, ckpt, tail[:cut]) },
			prefixRecords+n, advance1, torn > 0)
	})
	if err != nil {
		return nil, fmt.Errorf("sim: durable crash sweep: tail: %w", err)
	}

	// Byte-granular truncation sweep over the tail, classified as the
	// full-history sweeps classify theirs (sweepBytes). Unlike those there
	// is no refusal case — the checkpoint segment always anchors recovery.
	if !cs.SkipByteSweep {
		err := sweepBytes(tbounds, func(cut int64, seen int, torn bool) error {
			dir := filepath.Join(ds.Dir, fmt.Sprintf("byte-%05d", cut))
			if err := runDurableTrial(res, cfg, origin, baseTxns, full, bounds, refMaster, dir,
				func(d string) error { return store.WriteSegments(d, gen, ckpt, tail[:cut]) },
				prefixRecords+seen, advance1, torn); err != nil {
				return err
			}
			res.ByteKillPoints++
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("sim: durable crash sweep: tail: %w", err)
		}
	}

	// Mid-rotation crash images: each step of CompleteRotate that can die
	// leaves one of these on disk. The first recovers the old generation
	// (its originCommits is 0 — the initial checkpoint carried no entries);
	// the rest recover the new one and must sweep the leftovers.
	rotations := []struct {
		name          string
		setup         func(string) error
		m             int
		originCommits int
	}{
		{"tmp-checkpoint", func(d string) error {
			// Crash while writing the new checkpoint: temp file present,
			// rename never happened. The old generation must win.
			if err := store.WriteSegments(d, preGen, preCkpt, preTail); err != nil {
				return err
			}
			return os.WriteFile(store.CheckpointTempPath(d, preGen+1), ckpt[:len(ckpt)/2], 0o644)
		}, prefixRecords, 0},
		{"renamed-no-tail", func(d string) error {
			// Crash between the checkpoint rename and the tail creation:
			// the new checkpoint is complete, its tail missing.
			if err := store.WriteSegments(d, preGen, preCkpt, preTail); err != nil {
				return err
			}
			return store.WriteSegments(d, gen, ckpt, nil)
		}, prefixRecords, advance1},
		{"renamed-empty-tail", func(d string) error {
			// Crash after the tail was created but before the old
			// generation was reclaimed.
			if err := store.WriteSegments(d, preGen, preCkpt, preTail); err != nil {
				return err
			}
			return store.WriteSegments(d, gen, ckpt, []byte{})
		}, prefixRecords, advance1},
		{"stale-old-generation", func(d string) error {
			// The old generation was never swept; the newest one still wins.
			if err := store.WriteSegments(d, preGen, preCkpt, preTail); err != nil {
				return err
			}
			return store.WriteSegments(d, gen, ckpt, tail)
		}, prefixRecords + len(tailRecs), advance1},
	}
	for _, rt := range rotations {
		dir := filepath.Join(ds.Dir, "rotate-"+rt.name)
		if err := runDurableTrial(res, cfg, origin, baseTxns, full, bounds, refMaster, dir,
			rt.setup, rt.m, rt.originCommits, false); err != nil {
			return nil, fmt.Errorf("sim: durable crash sweep: rotation image %s: %w", rt.name, err)
		}
		res.RotationKillPoints++
	}
	return res, nil
}

// runDurableTrial materializes one crash image, recovers it with OpenBase
// and pins it against a full-log replay of the first m reference records:
// same acknowledged commits, same torn-tail report, same master. Both
// recoveries then resume the rest of the day (the durable one appending
// through its truncated tail), crash again, and re-recover — and the two
// re-recovered images must re-journal to identical bytes. originCommits is
// the commit count baked into the image's checkpoint origin, which the
// checkpoint replays as state rather than records.
func runDurableTrial(res *DurableSweepResult, cfg replica.Config, origin model.State,
	baseTxns []*tx.Transaction, full []byte, bounds []int64, refMaster model.State,
	dir string, setup func(string) error, m, originCommits int, wantTorn bool) error {
	if err := setup(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	b, rep, err := replica.OpenBase(dir, origin, cfg)
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	defer b.CloseStore()
	ob, orep, err := replica.RecoverBaseCluster(bytes.NewReader(full[:bounds[m-1]]), cfg)
	if err != nil {
		return fmt.Errorf("oracle replay (%d records): %w", m, err)
	}
	if got, want := originCommits+rep.Committed, orep.Committed; got != want {
		return fmt.Errorf("recovered %d committed txns (+%d in checkpoint origin), full-log replay acknowledged %d",
			rep.Committed, originCommits, want)
	}
	if rep.TornTail != wantTorn {
		return fmt.Errorf("recovery torn=%v, want %v", rep.TornTail, wantTorn)
	}
	if !b.Master().Equal(ob.Master()) {
		return fmt.Errorf("recovered master diverges from full-log replay: %s != %s", b.Master(), ob.Master())
	}

	// Resume the rest of the day on both recoveries — the durable one
	// appends through the recovered (possibly truncated) tail, which is
	// exactly the seam a second crash must survive.
	var oracleLog bytes.Buffer
	if err := ob.AttachJournal(&oracleLog); err != nil {
		return fmt.Errorf("oracle journal: %w", err)
	}
	for _, t := range baseTxns[orep.Committed:] {
		if err := b.ExecBase(t); err != nil {
			return fmt.Errorf("resume %s: %w", t.ID, err)
		}
		if err := ob.ExecBase(t); err != nil {
			return fmt.Errorf("oracle resume %s: %w", t.ID, err)
		}
	}
	if got := b.Master(); !got.Equal(refMaster) {
		return fmt.Errorf("master diverged after recovery: %s != %s", got, refMaster)
	}
	if err := b.CloseStore(); err != nil {
		return fmt.Errorf("close store: %w", err)
	}

	// Second crash, after the resumed appends: recovery from checkpoint +
	// tail must be byte-identical to the full-log replay — both re-journal
	// the same checkout, the same window, the same entries.
	b2, rep2, err := replica.OpenBase(dir, origin, cfg)
	if err != nil {
		return fmt.Errorf("re-recover after resume: %w", err)
	}
	defer b2.CloseStore()
	ob2, _, err := replica.RecoverBaseCluster(bytes.NewReader(oracleLog.Bytes()), cfg)
	if err != nil {
		return fmt.Errorf("oracle re-replay: %w", err)
	}
	var gotImg, wantImg bytes.Buffer
	if err := b2.AttachJournal(&gotImg); err != nil {
		return fmt.Errorf("re-journal recovery: %w", err)
	}
	if err := ob2.AttachJournal(&wantImg); err != nil {
		return fmt.Errorf("re-journal oracle: %w", err)
	}
	if !bytes.Equal(gotImg.Bytes(), wantImg.Bytes()) {
		return fmt.Errorf("recovered image diverges from full-log replay:\n got %q\nwant %q",
			gotImg.Bytes(), wantImg.Bytes())
	}

	res.Recoveries += 2
	res.RecordsReplayed += int64(rep.Records) + int64(rep2.Records)
	if rep.TornTail {
		res.TornTails++
	}
	return nil
}
