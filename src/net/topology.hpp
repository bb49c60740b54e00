#pragma once
/// \file topology.hpp
/// Body topology: where IoB devices sit. The paper's Sec. I placement list
/// (sound near the ear, controllers at the wrist, cameras on face/chest, ECG
/// at the chest, EMG/IMU on limbs) maps to named locations on the body.

namespace iob::net {

enum class BodyLocation {
  kHead,
  kEarLeft,
  kEarRight,
  kNeck,
  kChest,
  kWaist,
  kWristLeft,
  kWristRight,
  kFingerLeft,
  kFingerRight,
  kThighLeft,
  kAnkleLeft,
  kAnkleRight,
};

}  // namespace iob::net
