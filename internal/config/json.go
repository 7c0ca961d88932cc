// JSON/text serialization for the enum types and technique bundles.
//
// Every enum marshals as its String() name (encoding.TextMarshaler), so
// JSON-encoded configurations are readable, stable across enum-value
// reordering, and round-trip exactly. Struct fields marshal in
// declaration order (encoding/json guarantees that), which makes
// json.Marshal of Config and Techniques a canonical form: the same
// value always produces the same bytes. internal/service relies on that
// to derive content-addressed job keys.
package config

import "fmt"

// parseEnum maps a text name back to its enum value, with an error that
// lists the valid names in a stable order.
func parseEnum[T ~uint8](kind, s string, names []string, values []T) (T, error) {
	for i, n := range names {
		if s == n {
			return values[i], nil
		}
	}
	var zero T
	return zero, fmt.Errorf("config: unknown %s %q (valid: %v)", kind, s, names)
}

func (p IQPolicy) MarshalText() ([]byte, error) { return []byte(p.String()), nil }

func (p *IQPolicy) UnmarshalText(b []byte) error {
	v, err := parseEnum("issue-queue policy", string(b),
		[]string{"base", "activity-toggling", "non-compacting"},
		[]IQPolicy{IQBase, IQToggle, IQNonCompacting})
	if err != nil {
		return err
	}
	*p = v
	return nil
}

func (p ALUPolicy) MarshalText() ([]byte, error) { return []byte(p.String()), nil }

func (p *ALUPolicy) UnmarshalText(b []byte) error {
	v, err := parseEnum("ALU policy", string(b),
		[]string{"base", "fine-grain-turnoff", "round-robin"},
		[]ALUPolicy{ALUBase, ALUFineGrain, ALURoundRobin})
	if err != nil {
		return err
	}
	*p = v
	return nil
}

func (m RFMapping) MarshalText() ([]byte, error) { return []byte(m.String()), nil }

func (m *RFMapping) UnmarshalText(b []byte) error {
	v, err := parseEnum("register-file mapping", string(b),
		[]string{"priority", "balanced", "completely-balanced"},
		[]RFMapping{MapPriority, MapBalanced, MapCompletelyBalanced})
	if err != nil {
		return err
	}
	*m = v
	return nil
}

func (p RFWritePolicy) MarshalText() ([]byte, error) { return []byte(p.String()), nil }

func (p *RFWritePolicy) UnmarshalText(b []byte) error {
	v, err := parseEnum("register-file write policy", string(b),
		[]string{"margin-writes", "copy-on-cool"},
		[]RFWritePolicy{WriteMargin, WriteCopyOnCool})
	if err != nil {
		return err
	}
	*p = v
	return nil
}

func (p TemporalPolicy) MarshalText() ([]byte, error) { return []byte(p.String()), nil }

func (p *TemporalPolicy) UnmarshalText(b []byte) error {
	v, err := parseEnum("temporal policy", string(b),
		[]string{"stop-go", "dvfs"},
		[]TemporalPolicy{TemporalStopGo, TemporalDVFS})
	if err != nil {
		return err
	}
	*p = v
	return nil
}

func (s Scheduler) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

func (s *Scheduler) UnmarshalText(b []byte) error {
	v, err := parseEnum("scheduler", string(b),
		[]string{"roundrobin", "random", "coolest-first", "threshold-migrate"},
		[]Scheduler{SchedRoundRobin, SchedRandom, SchedCoolestFirst, SchedThresholdMigrate})
	if err != nil {
		return err
	}
	*s = v
	return nil
}

func (v FloorplanVariant) MarshalText() ([]byte, error) { return []byte(v.String()), nil }

func (v *FloorplanVariant) UnmarshalText(b []byte) error {
	fv, err := parseEnum("floorplan variant", string(b),
		[]string{"issue-queue-constrained", "alu-constrained", "register-file-constrained"},
		[]FloorplanVariant{PlanIQConstrained, PlanALUConstrained, PlanRFConstrained})
	if err != nil {
		return err
	}
	*v = fv
	return nil
}
