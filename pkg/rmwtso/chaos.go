package rmwtso

import "repro/internal/chaos"

// InstallChaosFromEnv arms seeded fault injection from the RMWTSO_CHAOS
// environment variable, which holds a JSON chaos spec (see
// internal/chaos), and returns a one-line description of the armed
// injector for the caller's startup banner, or "" when the variable is
// unset. The simulation harness sets it on the processes its scenarios
// script; it has no place in production runs. An unparsable or invalid
// spec is an error: a chaos run that silently ran clean would defeat the
// scenario asserting on its faults.
func InstallChaosFromEnv() (string, error) {
	in, ok, err := chaos.FromEnv()
	if err != nil {
		return "", err
	}
	if !ok {
		return "", nil
	}
	chaos.Install(in)
	return "chaos armed: " + in.String(), nil
}
