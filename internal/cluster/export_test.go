package cluster

// PullCheckpoint exposes the handoff pull to the external tests.
var PullCheckpoint = pullCheckpoint
