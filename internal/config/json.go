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

// enumName renders enum value v as its entry in names, or as typ(v)
// when v is out of range.
func enumName[T ~uint8](v T, typ string, names []string) string {
	if int(v) < len(names) {
		return names[v]
	}
	return fmt.Sprintf("%s(%d)", typ, uint8(v))
}

// parseEnum stores in dst the value whose name is text, with an error
// that lists the valid names in value order.
func parseEnum[T ~uint8](dst *T, kind string, text []byte, names []string) error {
	for i, n := range names {
		if string(text) == n {
			*dst = T(i)
			return nil
		}
	}
	return fmt.Errorf("config: unknown %s %q (valid: %v)", kind, text, names)
}

func (p IQPolicy) MarshalText() ([]byte, error) { return []byte(p.String()), nil }

func (p *IQPolicy) UnmarshalText(b []byte) error {
	return parseEnum(p, "issue-queue policy", b, iqPolicyNames)
}

func (p ALUPolicy) MarshalText() ([]byte, error) { return []byte(p.String()), nil }

func (p *ALUPolicy) UnmarshalText(b []byte) error {
	return parseEnum(p, "ALU policy", b, aluPolicyNames)
}

func (m RFMapping) MarshalText() ([]byte, error) { return []byte(m.String()), nil }

func (m *RFMapping) UnmarshalText(b []byte) error {
	return parseEnum(m, "register-file mapping", b, rfMappingNames)
}

func (p RFWritePolicy) MarshalText() ([]byte, error) { return []byte(p.String()), nil }

func (p *RFWritePolicy) UnmarshalText(b []byte) error {
	return parseEnum(p, "register-file write policy", b, rfWritePolicyNames)
}

func (p TemporalPolicy) MarshalText() ([]byte, error) { return []byte(p.String()), nil }

func (p *TemporalPolicy) UnmarshalText(b []byte) error {
	return parseEnum(p, "temporal policy", b, temporalPolicyNames)
}

func (s Scheduler) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

func (s *Scheduler) UnmarshalText(b []byte) error {
	return parseEnum(s, "scheduler", b, schedulerNames)
}

func (v FloorplanVariant) MarshalText() ([]byte, error) { return []byte(v.String()), nil }

func (v *FloorplanVariant) UnmarshalText(b []byte) error {
	return parseEnum(v, "floorplan variant", b, floorplanVariantNames)
}
