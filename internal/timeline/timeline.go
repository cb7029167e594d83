// Package timeline compiles declarative event scripts — flash crowds,
// link failures and restorations, diurnal demand cycles, SNMP outage
// windows — against a base scenario into a deterministic replay feed
// for the streaming engines. A script is JSON: a base scenario family
// spec, a timeline length in polling intervals, and a list of events
// each anchored at an interval (or at a duration that is a multiple of
// the script's step). Compile materializes the scripted demand series
// and the sequence of topology epochs (one per effective routing
// change), which Replay feeds into a collector store while
// RegisterSwaps arms the engine's mid-stream routing hot-swaps
// (stream.Engine.SwapRouting) — the production shape the paper's
// continuously collected measurements imply, where the network under
// the estimator changes while it runs.
package timeline

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"
)

// Format is the script format tag. Parse rejects other values instead
// of guessing at field semantics.
const Format = 1

// MaxIntervals bounds a script's length — over 200 days of 5-minute
// polls. Compile materializes one demand vector per interval, so an
// unbounded length would be an unbounded allocation.
const MaxIntervals = 1 << 16

// Script is one parsed timeline script, with every event anchor
// resolved to a polling-interval index.
type Script struct {
	// Base is the scenario family spec the timeline runs over (the
	// vocabulary of scenario.Build, e.g. "scaled:12"). The timeline
	// package treats it as opaque; scenario.BuildScript resolves it.
	Base string
	// Step is the polling-interval duration, used only to resolve
	// duration-string anchors ("30m" with step "5m" is interval 6).
	// Zero when the script never uses duration anchors.
	Step time.Duration
	// Intervals is the timeline length.
	Intervals int
	// Events, in non-decreasing anchor order.
	Events []Event
}

// Event is one script event. Kind is the JSON key that introduced it
// ("flash_crowd", "fail_link", "restore", "diurnal", "outage"); exactly
// one of the payload fields below is set accordingly.
type Event struct {
	// Index is the event's position in the script, used to name it in
	// errors.
	Index int
	// At is the first interval the event affects.
	At   int
	Kind string

	FlashCrowd *FlashCrowd
	// Link is the fail_link/restore adjacency spec: an interior link ID
	// of the base network, or "RouterA-RouterB" router names (either
	// direction; the whole bidirectional adjacency fails).
	Link    string
	Diurnal *Diurnal
	Outage  *Outage
}

// FlashCrowd multiplies one demand by Factor over [At, Until).
type FlashCrowd struct {
	// Src and Dst name the PoP pair, by PoP name or decimal index.
	Src, Dst string
	Factor   float64
	// Until is the first interval back at base demand (the script's
	// length when the event is open-ended).
	Until int
}

// Diurnal scales every demand by 1 + Amplitude·sin(2π(t−At)/Period)
// from At onward — the paper's dominant daily cycle (§5.3.1).
type Diurnal struct {
	Period    int
	Amplitude float64
}

// Outage marks intervals [At, Until) as missing: nothing is collected,
// and the engine skips the hole once later intervals close it out.
type Outage struct {
	Until int
}

// rawScript is the JSON schema of a script file. Events decode in a
// second pass so errors can name the offending event.
type rawScript struct {
	Format    int               `json:"format"`
	Base      string            `json:"base"`
	Step      string            `json:"step,omitempty"`
	Intervals int               `json:"intervals"`
	Events    []json.RawMessage `json:"events"`
}

type rawEvent struct {
	At         json.RawMessage `json:"at"`
	FlashCrowd *rawFlash       `json:"flash_crowd,omitempty"`
	FailLink   *string         `json:"fail_link,omitempty"`
	Restore    *string         `json:"restore,omitempty"`
	Diurnal    *rawDiurnal     `json:"diurnal,omitempty"`
	Outage     *rawOutage      `json:"outage,omitempty"`
}

type rawFlash struct {
	Pair   []string        `json:"pair"`
	Factor float64         `json:"factor"`
	Until  json.RawMessage `json:"until,omitempty"`
}

type rawDiurnal struct {
	Period    json.RawMessage `json:"period"`
	Amplitude float64         `json:"amplitude"`
}

type rawOutage struct {
	Until json.RawMessage `json:"until"`
}

// parseTicks resolves an anchor that is either a JSON integer (interval
// index) or a duration string measured against step.
func parseTicks(raw json.RawMessage, step time.Duration, what string) (int, error) {
	if len(raw) == 0 {
		return 0, fmt.Errorf("missing %s", what)
	}
	var n int
	if err := json.Unmarshal(raw, &n); err == nil {
		return n, nil
	}
	var s string
	if err := json.Unmarshal(raw, &s); err != nil {
		return 0, fmt.Errorf("%s %s is neither an interval index nor a duration string", what, raw)
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("%s %q: %v", what, s, err)
	}
	if step <= 0 {
		return 0, fmt.Errorf("%s %q needs the script's step set", what, s)
	}
	if d%step != 0 {
		return 0, fmt.Errorf("%s %q is not a multiple of step %v", what, s, step)
	}
	return int(d / step), nil
}

// Parse decodes and validates a script. Unknown fields — including
// unknown event kinds, which are just unknown keys on an event object —
// are rejected, and every event error names the event by its position
// in the script.
func Parse(data []byte) (*Script, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var raw rawScript
	if err := dec.Decode(&raw); err != nil {
		return nil, fmt.Errorf("timeline: parse script: %v", err)
	}
	if raw.Format != Format {
		return nil, fmt.Errorf("timeline: script format %d, this build reads %d", raw.Format, Format)
	}
	if raw.Intervals < 1 {
		return nil, fmt.Errorf("timeline: intervals %d, need at least 1", raw.Intervals)
	}
	if raw.Intervals > MaxIntervals {
		return nil, fmt.Errorf("timeline: intervals %d, at most %d", raw.Intervals, MaxIntervals)
	}
	s := &Script{Base: raw.Base, Intervals: raw.Intervals}
	if raw.Step != "" {
		d, err := time.ParseDuration(raw.Step)
		if err != nil || d <= 0 {
			return nil, fmt.Errorf("timeline: step %q is not a positive duration", raw.Step)
		}
		s.Step = d
	}
	prevAt := 0
	for i, rawEv := range raw.Events {
		ev, err := parseEvent(i, rawEv, s)
		if err != nil {
			return nil, err
		}
		if ev.At < 0 || ev.At >= s.Intervals {
			return nil, fmt.Errorf("timeline: event %d (at %d): outside the timeline [0, %d)", i, ev.At, s.Intervals)
		}
		if ev.At < prevAt {
			return nil, fmt.Errorf("timeline: event %d (at %d): out of order, previous event is at %d", i, ev.At, prevAt)
		}
		prevAt = ev.At
		s.Events = append(s.Events, ev)
	}
	return s, nil
}

// ParseFile reads and parses the script at path.
func ParseFile(path string) (*Script, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("timeline: %w", err)
	}
	s, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

func parseEvent(i int, data json.RawMessage, s *Script) (Event, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var raw rawEvent
	if err := dec.Decode(&raw); err != nil {
		// An unknown key on the event object is an unknown event kind;
		// json names the key, we name the event.
		return Event{}, fmt.Errorf("timeline: event %d: %v", i, err)
	}
	at, err := parseTicks(raw.At, s.Step, "at")
	if err != nil {
		return Event{}, fmt.Errorf("timeline: event %d: %v", i, err)
	}
	ev := Event{Index: i, At: at}
	fail := func(format string, args ...any) (Event, error) {
		return Event{}, fmt.Errorf("timeline: event %d (at %d): %s", i, at, fmt.Sprintf(format, args...))
	}
	kinds := 0
	if raw.FlashCrowd != nil {
		kinds++
		ev.Kind = "flash_crowd"
		if len(raw.FlashCrowd.Pair) != 2 {
			return fail("flash_crowd pair has %d PoPs, want 2", len(raw.FlashCrowd.Pair))
		}
		if raw.FlashCrowd.Factor <= 0 {
			return fail("flash_crowd factor %g, want > 0", raw.FlashCrowd.Factor)
		}
		until := s.Intervals
		if len(raw.FlashCrowd.Until) > 0 {
			if until, err = parseTicks(raw.FlashCrowd.Until, s.Step, "until"); err != nil {
				return fail("%v", err)
			}
			if until <= at || until > s.Intervals {
				return fail("until %d outside (%d, %d]", until, at, s.Intervals)
			}
		}
		ev.FlashCrowd = &FlashCrowd{
			Src: raw.FlashCrowd.Pair[0], Dst: raw.FlashCrowd.Pair[1],
			Factor: raw.FlashCrowd.Factor, Until: until,
		}
	}
	if raw.FailLink != nil {
		kinds++
		ev.Kind = "fail_link"
		ev.Link = *raw.FailLink
	}
	if raw.Restore != nil {
		kinds++
		ev.Kind = "restore"
		ev.Link = *raw.Restore
	}
	if raw.Diurnal != nil {
		kinds++
		ev.Kind = "diurnal"
		period, err := parseTicks(raw.Diurnal.Period, s.Step, "period")
		if err != nil {
			return fail("%v", err)
		}
		if period < 2 {
			return fail("diurnal period %d, want at least 2 intervals", period)
		}
		if a := raw.Diurnal.Amplitude; a < 0 || a >= 1 {
			return fail("diurnal amplitude %g outside [0, 1)", a)
		}
		ev.Diurnal = &Diurnal{Period: period, Amplitude: raw.Diurnal.Amplitude}
	}
	if raw.Outage != nil {
		kinds++
		ev.Kind = "outage"
		until, err := parseTicks(raw.Outage.Until, s.Step, "until")
		if err != nil {
			return fail("%v", err)
		}
		if until <= at || until > s.Intervals {
			return fail("outage until %d outside (%d, %d]", until, at, s.Intervals)
		}
		ev.Outage = &Outage{Until: until}
	}
	switch kinds {
	case 0:
		return fail("no event kind (want one of flash_crowd, fail_link, restore, diurnal, outage)")
	case 1:
		return ev, nil
	default:
		return fail("%d event kinds on one event, want exactly 1", kinds)
	}
}
