package main

// Pinned digests of today's deterministic outputs. A change that moves any
// of them changes what the simulator or the trainer computes, which the
// benchmark reports as a failed operation.
const (
	pinnedModelDigest  = "364c6250edfaba30"
	pinnedClosedCanary = "2010f713e0564a13"
	pinnedFleetCanary  = "80a4080c12c44ee3"
)
