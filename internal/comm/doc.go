// Package comm is the two-party protocol runtime.
//
// The paper's model has Alice and Bob exchanging messages; the complexity
// measures are the total number of transmitted bits and the number of
// rounds (maximal blocks of messages flowing in one direction). This
// package provides an in-process simulation of that model with exact
// accounting: every protocol message is serialized into a Message, handed
// to Conn.Send, and the connection records its payload size and advances
// the round counter whenever the direction of communication flips.
//
// Local computation is free, exactly as in the communication-complexity
// model. Shared randomness is free too (public-coin model): both parties
// derive sketching matrices from a common seed outside this package.
//
// The encoding vocabulary (unsigned/signed varints, fixed 64-bit floats,
// 3-byte Float24 sketch words, bitmaps, delta-coded index lists, sparse
// vectors and matrices) mirrors the message
// types the paper's protocols need; each helper documents its exact cost.
package comm
