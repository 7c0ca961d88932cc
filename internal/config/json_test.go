package config

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// TestTechniquesJSONRoundTrip marshals every enum combination the
// experiments use and checks the decoded value is identical and the
// encoding is stable (same value → same bytes).
func TestTechniquesJSONRoundTrip(t *testing.T) {
	cases := []Techniques{
		{},
		{IQ: IQToggle},
		{IQ: IQNonCompacting, ALU: ALURoundRobin},
		{ALU: ALUFineGrain, RFMap: MapBalanced, RFTurnoff: true},
		{RFMap: MapCompletelyBalanced, RFWrites: WriteCopyOnCool},
		{IQ: IQToggle, ALU: ALUFineGrain, RFMap: MapPriority, RFTurnoff: true, Temporal: TemporalDVFS},
	}
	for _, tc := range cases {
		b1, err := json.Marshal(tc)
		if err != nil {
			t.Fatalf("marshal %+v: %v", tc, err)
		}
		var got Techniques
		if err := json.Unmarshal(b1, &got); err != nil {
			t.Fatalf("unmarshal %s: %v", b1, err)
		}
		if got != tc {
			t.Errorf("round trip %+v -> %s -> %+v", tc, b1, got)
		}
		b2, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if string(b1) != string(b2) {
			t.Errorf("unstable encoding: %s != %s", b1, b2)
		}
	}
}

// TestTechniquesJSONNames pins the wire format: enums are readable
// strings, keys are snake_case, and the field order is the declaration
// order (the canonical form the service job keys hash).
func TestTechniquesJSONNames(t *testing.T) {
	b, err := json.Marshal(Techniques{IQ: IQToggle, ALU: ALURoundRobin, RFMap: MapBalanced, RFTurnoff: true})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"iq":"activity-toggling","alu":"round-robin","rf_map":"balanced","rf_turnoff":true,"rf_writes":"margin-writes","temporal":"stop-go"}`
	if string(b) != want {
		t.Errorf("techniques JSON =\n %s\nwant\n %s", b, want)
	}
}

func TestConfigJSONRoundTrip(t *testing.T) {
	cfg := Default()
	cfg.Plan = PlanRFConstrained
	cfg.Techniques = Techniques{IQ: IQToggle, RFTurnoff: true, Temporal: TemporalDVFS}
	cfg.SensorNoiseK = 1.5

	b1, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var got Config
	if err := json.Unmarshal(b1, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&got, cfg) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, *cfg)
	}
	b2, err := json.Marshal(&got)
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Errorf("unstable encoding:\n %s\n %s", b1, b2)
	}
	if !strings.Contains(string(b1), `"Plan":"register-file-constrained"`) {
		t.Errorf("plan did not marshal as its name: %s", b1)
	}
}

// TestEnumUnmarshalErrors checks that bad names fail with an error
// naming the valid set instead of silently zeroing the field.
func TestEnumUnmarshalErrors(t *testing.T) {
	cases := []struct {
		dst  any
		text string
	}{
		{new(IQPolicy), "toggling"},
		{new(ALUPolicy), "fgt"},
		{new(RFMapping), "complete"},
		{new(RFWritePolicy), "margins"},
		{new(TemporalPolicy), "stopgo"},
		{new(FloorplanVariant), "iq"},
		{new(Scheduler), "coolest"},
	}
	for _, c := range cases {
		err := json.Unmarshal([]byte(`"`+c.text+`"`), c.dst)
		if err == nil {
			t.Errorf("%T accepted %q", c.dst, c.text)
			continue
		}
		if !strings.Contains(err.Error(), "valid:") {
			t.Errorf("%T error %q does not list valid names", c.dst, err)
		}
	}
}

// TestEnumRoundTripAll round-trips every defined enum value through its
// text form.
func TestEnumRoundTripAll(t *testing.T) {
	for _, v := range []IQPolicy{IQBase, IQToggle, IQNonCompacting} {
		var got IQPolicy
		b, _ := v.MarshalText()
		if err := got.UnmarshalText(b); err != nil || got != v {
			t.Errorf("IQPolicy %v: %v %v", v, got, err)
		}
	}
	for _, v := range []ALUPolicy{ALUBase, ALUFineGrain, ALURoundRobin} {
		var got ALUPolicy
		b, _ := v.MarshalText()
		if err := got.UnmarshalText(b); err != nil || got != v {
			t.Errorf("ALUPolicy %v: %v %v", v, got, err)
		}
	}
	for _, v := range []RFMapping{MapPriority, MapBalanced, MapCompletelyBalanced} {
		var got RFMapping
		b, _ := v.MarshalText()
		if err := got.UnmarshalText(b); err != nil || got != v {
			t.Errorf("RFMapping %v: %v %v", v, got, err)
		}
	}
	for _, v := range []RFWritePolicy{WriteMargin, WriteCopyOnCool} {
		var got RFWritePolicy
		b, _ := v.MarshalText()
		if err := got.UnmarshalText(b); err != nil || got != v {
			t.Errorf("RFWritePolicy %v: %v %v", v, got, err)
		}
	}
	for _, v := range []TemporalPolicy{TemporalStopGo, TemporalDVFS} {
		var got TemporalPolicy
		b, _ := v.MarshalText()
		if err := got.UnmarshalText(b); err != nil || got != v {
			t.Errorf("TemporalPolicy %v: %v %v", v, got, err)
		}
	}
	for _, v := range []FloorplanVariant{PlanIQConstrained, PlanALUConstrained, PlanRFConstrained} {
		var got FloorplanVariant
		b, _ := v.MarshalText()
		if err := got.UnmarshalText(b); err != nil || got != v {
			t.Errorf("FloorplanVariant %v: %v %v", v, got, err)
		}
	}
	for _, v := range Schedulers() {
		var got Scheduler
		b, _ := v.MarshalText()
		if err := got.UnmarshalText(b); err != nil || got != v {
			t.Errorf("Scheduler %v: %v %v", v, got, err)
		}
	}
}
