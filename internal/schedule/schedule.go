// Package schedule represents resilience schedules for linear task graphs:
// which task boundaries carry a partial verification, a guaranteed
// verification, an in-memory checkpoint and/or a disk checkpoint.
//
// The model of the paper (Section II) imposes a strict nesting: a disk
// checkpoint is always preceded by a memory checkpoint, and a memory
// checkpoint by a guaranteed verification, so that stored checkpoints are
// never corrupted. The package enforces those invariants.
//
// Boundary i (1 <= i <= n) is the point right after task Ti. Boundary 0 is
// the virtual task T0, which is always disk- and memory-checkpointed with
// recovery cost zero (restarting from scratch is always possible).
package schedule

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
)

// Action is a bitmask of resilience mechanisms placed at one task boundary.
type Action uint8

// The four mechanisms of the paper. Disk implies Memory implies
// Guaranteed; Partial and Guaranteed are mutually exclusive (a guaranteed
// verification subsumes a partial one).
const (
	// Partial is a partial verification of cost V and recall r < 1.
	Partial Action = 1 << 0
	// Guaranteed is a guaranteed verification of cost V* and recall 1.
	Guaranteed Action = 1 << 1
	// Memory is an in-memory checkpoint of cost C_M.
	Memory Action = 1 << 2
	// Disk is a stable-storage checkpoint of cost C_D.
	Disk Action = 1 << 3
)

// None is the empty action.
const None Action = 0

// checkpointAll is the action of the virtual task T0 and of the final
// boundary of a complete schedule.
const checkpointAll = Guaranteed | Memory | Disk

// Normalize returns a with all implied mechanisms added (Disk -> Memory ->
// Guaranteed) and a redundant Partial removed when Guaranteed is present.
func (a Action) Normalize() Action {
	if a&Disk != 0 {
		a |= Memory
	}
	if a&Memory != 0 {
		a |= Guaranteed
	}
	if a&Guaranteed != 0 {
		a &^= Partial
	}
	return a
}

// Has reports whether every mechanism in m is present in a.
func (a Action) Has(m Action) bool { return a&m == m }

// Valid reports whether the action respects the model's nesting rules.
func (a Action) Valid() bool {
	if a.Has(Disk) && !a.Has(Memory) {
		return false
	}
	if a.Has(Memory) && !a.Has(Guaranteed) {
		return false
	}
	if a.Has(Guaranteed) && a.Has(Partial) {
		return false
	}
	return a <= checkpointAll|Partial
}

// String renders the action compactly, e.g. "V*+M+D", "V", "-".
func (a Action) String() string {
	if a == None {
		return "-"
	}
	var parts []string
	if a.Has(Partial) {
		parts = append(parts, "V")
	}
	if a.Has(Guaranteed) {
		parts = append(parts, "V*")
	}
	if a.Has(Memory) {
		parts = append(parts, "M")
	}
	if a.Has(Disk) {
		parts = append(parts, "D")
	}
	return strings.Join(parts, "+")
}

// Schedule assigns an Action to every boundary of an n-task chain.
type Schedule struct {
	n       int
	actions []Action // index 0..n; index 0 is the virtual T0
}

// ErrTooShort reports a schedule over an empty chain.
var ErrTooShort = errors.New("schedule: need at least one task")

// New returns an empty schedule (no actions anywhere) for an n-task chain.
// The virtual boundary 0 is pre-set to V*+M+D as the model requires.
func New(n int) (*Schedule, error) {
	if n < 1 {
		return nil, ErrTooShort
	}
	s := &Schedule{n: n, actions: make([]Action, n+1)}
	s.actions[0] = checkpointAll
	return s, nil
}

// MustNew is New that panics on error, for tests and examples.
func MustNew(n int) *Schedule {
	s, err := New(n)
	if err != nil {
		panic(err)
	}
	return s
}

// Len returns the number of tasks n.
func (s *Schedule) Len() int { return s.n }

// At returns the action at boundary i, 0 <= i <= n.
func (s *Schedule) At(i int) Action {
	s.check(i)
	return s.actions[i]
}

// Set places action a (normalized) at boundary i, 1 <= i <= n. Boundary 0
// is owned by the model and cannot be changed.
func (s *Schedule) Set(i int, a Action) {
	if i == 0 {
		panic("schedule: boundary 0 is the virtual task T0 and cannot be modified")
	}
	s.check(i)
	s.actions[i] = a.Normalize()
}

// Add merges mechanisms into the existing action at boundary i.
func (s *Schedule) Add(i int, a Action) {
	s.Set(i, s.actions[i]|a)
}

// SpliceSuffix overwrites boundaries from+1..n with the actions of a
// suffix schedule indexed 1..n-from — the shape Kernel.ReplanSuffix
// returns, suffix boundary k corresponding to chain boundary from+k —
// and reports whether any action actually changed. It panics when the
// suffix length is not exactly n-from, the same contract-violation
// treatment as an out-of-range Set.
func (s *Schedule) SpliceSuffix(from int, suffix *Schedule) (changed bool) {
	if from < 0 || suffix.n != s.n-from {
		panic(fmt.Sprintf("schedule: cannot splice a %d-task suffix into a %d-task schedule at boundary %d",
			suffix.n, s.n, from))
	}
	for k := 1; k <= suffix.n; k++ {
		a := suffix.actions[k].Normalize()
		if s.actions[from+k] != a {
			changed = true
		}
		s.actions[from+k] = a
	}
	return changed
}

// Clone returns a deep copy.
func (s *Schedule) Clone() *Schedule {
	c := &Schedule{n: s.n, actions: make([]Action, len(s.actions))}
	copy(c.actions, s.actions)
	return c
}

// Equal reports whether two schedules place identical actions.
func (s *Schedule) Equal(o *Schedule) bool {
	if s.n != o.n {
		return false
	}
	for i := range s.actions {
		if s.actions[i] != o.actions[i] {
			return false
		}
	}
	return true
}

// Validate checks the structural invariants of every boundary.
func (s *Schedule) Validate() error {
	if s.n < 1 || len(s.actions) != s.n+1 {
		return fmt.Errorf("schedule: inconsistent length (n=%d, %d actions)", s.n, len(s.actions))
	}
	if s.actions[0] != checkpointAll {
		return fmt.Errorf("schedule: virtual boundary 0 must be V*+M+D, got %v", s.actions[0])
	}
	for i := 1; i <= s.n; i++ {
		if !s.actions[i].Valid() {
			return fmt.Errorf("schedule: invalid action %v at boundary %d", s.actions[i], i)
		}
	}
	return nil
}

// ValidateComplete additionally requires the final boundary to carry a
// disk checkpoint (the paper's E_disk(n) target: the application's output
// must reach stable storage).
func (s *Schedule) ValidateComplete() error {
	if err := s.Validate(); err != nil {
		return err
	}
	if !s.actions[s.n].Has(Disk) {
		return fmt.Errorf("schedule: final boundary %d must carry a disk checkpoint, got %v",
			s.n, s.actions[s.n])
	}
	return nil
}

// Counts tallies the mechanisms placed on boundaries 1..n (the virtual T0
// is excluded). Memory counts include the checkpoints co-located with
// disk checkpoints, and Guaranteed counts include those co-located with
// memory checkpoints, matching the stacked counts plotted in Figures 5-8.
type Counts struct {
	Disk       int `json:"disk"`
	Memory     int `json:"memory"`
	Guaranteed int `json:"guaranteed"`
	Partial    int `json:"partial"`
}

// Counts returns the mechanism tallies of the schedule.
func (s *Schedule) Counts() Counts {
	var c Counts
	for i := 1; i <= s.n; i++ {
		a := s.actions[i]
		if a.Has(Disk) {
			c.Disk++
		}
		if a.Has(Memory) {
			c.Memory++
		}
		if a.Has(Guaranteed) {
			c.Guaranteed++
		}
		if a.Has(Partial) {
			c.Partial++
		}
	}
	return c
}

// Indices returns the boundaries in 1..n whose action contains every
// mechanism in m, in increasing order.
func (s *Schedule) Indices(m Action) []int {
	var out []int
	for i := 1; i <= s.n; i++ {
		if s.actions[i].Has(m) {
			out = append(out, i)
		}
	}
	return out
}

// Station is a boundary that carries at least one mechanism. The ordered
// station list is the walking skeleton used by the exact evaluator and
// the Monte-Carlo simulator.
type Station struct {
	Pos    int
	Action Action
}

// Stations returns all non-empty boundaries in 1..n in increasing order.
func (s *Schedule) Stations() []Station {
	var out []Station
	for i := 1; i <= s.n; i++ {
		if s.actions[i] != None {
			out = append(out, Station{Pos: i, Action: s.actions[i]})
		}
	}
	return out
}

// TotalCost returns the error-free cost of all placed mechanisms given
// the four unit costs; useful for quick overhead accounting.
func (s *Schedule) TotalCost(v, vstar, cm, cd float64) float64 {
	var total float64
	for i := 1; i <= s.n; i++ {
		a := s.actions[i]
		if a.Has(Partial) {
			total += v
		}
		if a.Has(Guaranteed) {
			total += vstar
		}
		if a.Has(Memory) {
			total += cm
		}
		if a.Has(Disk) {
			total += cd
		}
	}
	return total
}

// String renders the schedule as a compact action list, e.g.
// "[T0:V*+M+D 3:V 5:V* 8:V*+M 10:V*+M+D]".
func (s *Schedule) String() string {
	var b strings.Builder
	b.WriteString("[T0:V*+M+D")
	for i := 1; i <= s.n; i++ {
		if s.actions[i] != None {
			fmt.Fprintf(&b, " %d:%s", i, s.actions[i])
		}
	}
	b.WriteByte(']')
	return b.String()
}

// Strip renders the schedule in the style of the paper's Figure 6: one
// text row per mechanism with a mark at each boundary that carries it.
func (s *Schedule) Strip() string {
	rows := []struct {
		label string
		mask  Action
		mark  byte
	}{
		{"Disk ckpts       ", Disk, 'D'},
		{"Memory ckpts     ", Memory, 'M'},
		{"Guaranteed verifs", Guaranteed, '*'},
		{"Partial verifs   ", Partial, 'v'},
	}
	var b strings.Builder
	for r, row := range rows {
		if r > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(row.label)
		b.WriteString(" |")
		for i := 1; i <= s.n; i++ {
			if s.actions[i].Has(row.mask) {
				b.WriteByte(row.mark)
			} else {
				b.WriteByte('.')
			}
		}
		b.WriteByte('|')
	}
	return b.String()
}

type scheduleJSON struct {
	N       int      `json:"n"`
	Actions []string `json:"actions"` // boundaries 1..n
}

// MarshalJSON encodes the schedule with human-readable action strings.
func (s *Schedule) MarshalJSON() ([]byte, error) {
	out := scheduleJSON{N: s.n, Actions: make([]string, s.n)}
	for i := 1; i <= s.n; i++ {
		out.Actions[i-1] = s.actions[i].String()
	}
	return json.Marshal(out)
}

// UnmarshalJSON decodes and validates a schedule.
func (s *Schedule) UnmarshalJSON(data []byte) error {
	var in scheduleJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	if in.N != len(in.Actions) {
		return fmt.Errorf("schedule: n=%d but %d actions", in.N, len(in.Actions))
	}
	ns, err := New(in.N)
	if err != nil {
		return err
	}
	for i, str := range in.Actions {
		a, err := ParseAction(str)
		if err != nil {
			return fmt.Errorf("schedule: boundary %d: %w", i+1, err)
		}
		ns.actions[i+1] = a
	}
	if err := ns.Validate(); err != nil {
		return err
	}
	*s = *ns
	return nil
}

// ParseAction parses the String form of an Action ("-", "V", "V*",
// "V*+M", "V*+M+D", ...). The result is validated but not normalized.
func ParseAction(str string) (Action, error) {
	if str == "-" || str == "" {
		return None, nil
	}
	var a Action
	for _, part := range strings.Split(str, "+") {
		switch part {
		case "V":
			a |= Partial
		case "V*":
			a |= Guaranteed
		case "M":
			a |= Memory
		case "D":
			a |= Disk
		default:
			return None, fmt.Errorf("unknown mechanism %q", part)
		}
	}
	if !a.Valid() {
		return None, fmt.Errorf("invalid action %q", str)
	}
	return a, nil
}

func (s *Schedule) check(i int) {
	if i < 0 || i > s.n {
		panic(fmt.Sprintf("schedule: boundary %d out of range [0, %d]", i, s.n))
	}
}
