package server

import "testing"

// FuzzParseSubmit feeds arbitrary bytes to the submit decoder, which
// reads every POST /v1/jobs body. It must never panic, it must return
// either a submission or an error, and an accepted plan must stay within
// the service's bounds: at most 2,600 units (maxPlanSeeds seeds of the
// 26-unit default plan) and at most 1,024 simulated cores.
//
// The seed corpus is TestSubmitValidation's rejected bodies (a fleet
// submit with its lease fields among them) plus one accepted body of
// each kind and mode. No accepted submission has a mode other than
// static or coordinate.
func FuzzParseSubmit(f *testing.F) {
	for _, tc := range badSubmits {
		f.Add([]byte(tc.body))
	}
	for _, body := range []string{
		`{"plan":` + tinyPlanSpec + `}`,
		`{"plan":` + tinyPlanSpec + `,"mode":"coordinate"}`,
		`{"plan":{"preset":"quick","seeds":3}}`,
		`{"litmus":{"name":"write-deadlock (Fig. 10)"}}`,
		`{"litmus":{"group":"paper"}}`,
	} {
		f.Add([]byte(body))
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		sub, err := parseSubmit(body)
		if err != nil {
			if sub != nil {
				t.Fatalf("parseSubmit returned both a submission and the error %v", err)
			}
			return
		}
		if sub == nil {
			t.Fatal("parseSubmit returned neither a submission nor an error")
		}
		if sub.mode != "static" && sub.mode != "coordinate" {
			t.Fatalf("accepted a submission in mode %q", sub.mode)
		}
		switch sub.kind {
		case "plan":
			if sub.plan == nil || sub.tests != nil {
				t.Fatalf("plan submission has plan %v and %d tests", sub.plan != nil, len(sub.tests))
			}
			if n := sub.plan.Len(); n > 2600 {
				t.Fatalf("accepted a plan of %d units, more than 2,600", n)
			}
			if c := sub.plan.Options().Cores; c > 1024 {
				t.Fatalf("accepted a plan on %d cores, more than 1,024", c)
			}
		case "litmus":
			if sub.plan != nil || len(sub.tests) == 0 || sub.mode != "static" {
				t.Fatalf("litmus submission has plan %v, %d tests, mode %q", sub.plan != nil, len(sub.tests), sub.mode)
			}
		default:
			t.Fatalf("submission of unknown kind %q", sub.kind)
		}
	})
}
