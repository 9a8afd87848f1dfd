package netstack

// DatagramSlabSize is dgramSlabSize, for the external tests.
const DatagramSlabSize = dgramSlabSize
