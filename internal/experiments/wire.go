package experiments

import (
	"fmt"

	"tiermerge/internal/sim"
)

// E12WireFidelity grounds the Section 7.1 communication weights: the same
// fleet scenario runs once with the modeled byte accounting (per-entry
// weights from cost.DefaultWeights) and once over the message-passing
// transport, where every checkout/merge/reprocess is a real serialized
// payload. The modeled and measured byte totals must stay within one order
// of magnitude for the E8 cost comparisons to be meaningful.
func E12WireFidelity() *Table {
	t := &Table{
		ID:    "E12",
		Title: "Section 7.1 grounding: modeled vs real wire bytes",
		Header: []string{
			"mobiles", "modeled msgs", "modeled bytes", "wire requests", "wire bytes", "ratio",
		},
	}
	ok := true
	for _, mobiles := range []int{2, 6, 12} {
		base := sim.Scenario{
			Seed: 123, Mobiles: mobiles, Rounds: 3, TxnsPerRound: 5, Items: 64,
		}
		modeled, err := sim.Run(base)
		if err != nil {
			panic(err)
		}
		wired := base
		wired.Mode = sim.Messages
		real, err := sim.Run(wired)
		if err != nil {
			panic(err)
		}
		ratio := float64(real.WireBytes) / float64(modeled.Counts.Bytes)
		if ratio < 0.1 || ratio > 10 {
			ok = false
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(mobiles),
			fmt.Sprint(modeled.Counts.Messages),
			fmt.Sprint(modeled.Counts.Bytes),
			fmt.Sprint(real.WireRequests),
			fmt.Sprint(real.WireBytes),
			fmt.Sprintf("%.2fx", ratio),
		})
	}
	t.Checks = append(t.Checks,
		Check{Name: "real wire bytes within 10x of the modeled bytes", OK: ok},
	)
	return t
}

// E17WireTransport closes the loop the TCP transport opened: the same
// fleet runs over the in-process transport and over real loopback
// TCP, comparing three byte accountings of the identical workload — the
// Section 7.1 modeled costs (per-message overhead plus per-entry weights,
// the Msg/SetEntriesSent bookkeeping), the serialized envelope payloads
// (what BaseServer counts on any transport), and the measured on-wire
// frame bytes (payloads plus the version-and-length headers that actually
// crossed the socket). The TCP run must move at least the payload bytes,
// the framing overhead must stay marginal, and the modeled totals must
// stay within the E12 order-of-magnitude band of what the socket carried.
func E17WireTransport() *Table {
	t := &Table{
		ID:    "E17",
		Title: "TCP transport: modeled vs payload vs on-wire frame bytes",
		Header: []string{
			"mobiles", "modeled msgs", "modeled bytes", "tcp requests",
			"payload bytes", "frame bytes", "overhead", "redials",
		},
	}
	headersOK, bandOK, cleanOK := true, true, true
	var maxOverhead float64
	for _, mobiles := range []int{2, 6} {
		base := sim.Scenario{
			Seed: 321, Mobiles: mobiles, Rounds: 3, TxnsPerRound: 5, Items: 64,
		}
		modeled, err := sim.Run(base)
		if err != nil {
			panic(err)
		}
		tcp := base
		tcp.Mode = sim.TCP
		real, err := sim.Run(tcp)
		if err != nil {
			panic(err)
		}
		if real.WireFrameBytes <= real.WireBytes {
			headersOK = false
		}
		overhead := float64(real.WireFrameBytes-real.WireBytes) / float64(real.WireBytes)
		if overhead > maxOverhead {
			maxOverhead = overhead
		}
		ratio := float64(real.WireFrameBytes) / float64(modeled.Counts.Bytes)
		if ratio < 0.1 || ratio > 10 {
			bandOK = false
		}
		// No fault injection is armed, so a healthy loopback run needs no
		// reconnects: every redial would mean pooled connections going
		// stale inside one fleet run.
		if real.WireRedials != 0 {
			cleanOK = false
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(mobiles),
			fmt.Sprint(modeled.Counts.Messages),
			fmt.Sprint(modeled.Counts.Bytes),
			fmt.Sprint(real.WireRequests),
			fmt.Sprint(real.WireBytes),
			fmt.Sprint(real.WireFrameBytes),
			fmt.Sprintf("%.2f%%", 100*overhead),
			fmt.Sprint(real.WireRedials),
		})
	}
	t.Checks = append(t.Checks,
		Check{Name: "frame bytes exceed payload bytes (headers measured)", OK: headersOK},
		Check{Name: "framing overhead below 2%", OK: maxOverhead < 0.02,
			Note: fmt.Sprintf("max %.2f%%", 100*maxOverhead)},
		Check{Name: "modeled bytes within 10x of on-wire bytes", OK: bandOK},
		Check{Name: "no redials on a healthy loopback fleet", OK: cleanOK},
	)
	return t
}
