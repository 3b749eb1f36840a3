package engine

// DecodeAckPayload exposes the coordinator's ack-payload decoder to the
// external tests' fuzz target.
var DecodeAckPayload = decodeAckPayload
